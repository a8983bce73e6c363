#include "sql/parser.h"

#include <set>

#include "exec/table_function.h"
#include "sql/lexer.h"
#include "util/string_util.h"

namespace soda {

namespace {

/// Words that terminate an implicit alias position.
const std::set<std::string>& ReservedWords() {
  static const std::set<std::string> kWords = {
      "select", "from",   "where", "group",  "having", "order",  "limit",
      "offset", "union",  "join",  "inner",  "cross",  "left",   "right",
      "full",   "outer",  "on",    "as",     "with",   "recursive",
      "and",    "or",     "not",   "case",   "when",   "then",   "else",
      "end",    "by",     "values","asc",    "desc",   "iterate","insert",
      "create", "drop",   "table", "into",   "cast",   "distinct",
      "update", "delete", "set",   "explain", "in",    "between", "like",
      "is",     "null"};
  return kWords;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseSingleStatement() {
    SODA_ASSIGN_OR_RETURN(Statement stmt, ParseStatementImpl());
    Match(TokenType::kSemicolon);
    if (Peek().type != TokenType::kEof) {
      return Unexpected("end of statement");
    }
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> out;
    while (Peek().type != TokenType::kEof) {
      SODA_ASSIGN_OR_RETURN(Statement stmt, ParseStatementImpl());
      out.push_back(std::move(stmt));
      if (!Match(TokenType::kSemicolon)) break;
    }
    if (Peek().type != TokenType::kEof) {
      return Unexpected("';' or end of script");
    }
    return out;
  }

 private:
  // --- token helpers ------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Match(TokenType t) {
    if (Peek().type == t) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* what) {
    if (!Match(t)) return Unexpected(what);
    return Status::OK();
  }
  bool PeekKeyword(const char* kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdent && t.text == kw;
  }
  bool MatchKeyword(const char* kw) {
    if (PeekKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) return Unexpected(kw);
    return Status::OK();
  }
  Status Unexpected(const std::string& expected) const {
    return Status::ParseError("expected " + expected + " but found " +
                              TokenToString(Peek()) + " at offset " +
                              std::to_string(Peek().offset));
  }

  // --- statements ---------------------------------------------------------
  Result<Statement> ParseStatementImpl() {
    Statement stmt;
    if (PeekKeyword("create")) {
      SODA_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTable());
      stmt.kind = StatementKind::kCreateTable;
      return stmt;
    }
    if (PeekKeyword("insert")) {
      SODA_ASSIGN_OR_RETURN(stmt.insert, ParseInsert());
      stmt.kind = StatementKind::kInsert;
      return stmt;
    }
    if (PeekKeyword("drop")) {
      SODA_ASSIGN_OR_RETURN(stmt.drop_table, ParseDropTable());
      stmt.kind = StatementKind::kDropTable;
      return stmt;
    }
    if (PeekKeyword("update")) {
      SODA_ASSIGN_OR_RETURN(stmt.update, ParseUpdate());
      stmt.kind = StatementKind::kUpdate;
      return stmt;
    }
    if (PeekKeyword("delete")) {
      SODA_ASSIGN_OR_RETURN(stmt.del, ParseDelete());
      stmt.kind = StatementKind::kDelete;
      return stmt;
    }
    if (PeekKeyword("set")) {
      SODA_ASSIGN_OR_RETURN(stmt.set, ParseSet());
      stmt.kind = StatementKind::kSet;
      return stmt;
    }
    if (MatchKeyword("checkpoint")) {
      stmt.kind = StatementKind::kCheckpoint;
      return stmt;
    }
    if (MatchKeyword("scrub")) {
      stmt.kind = StatementKind::kScrub;
      return stmt;
    }
    if (MatchKeyword("explain")) {
      // "analyze" is a soft keyword: only special directly after EXPLAIN,
      // so it stays usable as an identifier elsewhere.
      if (MatchKeyword("analyze")) stmt.explain_analyze = true;
      SODA_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      stmt.kind = StatementKind::kExplain;
      return stmt;
    }
    if (PeekKeyword("prepare")) {
      SODA_ASSIGN_OR_RETURN(stmt.prepare, ParsePrepare());
      stmt.kind = StatementKind::kPrepare;
      return stmt;
    }
    if (PeekKeyword("execute")) {
      SODA_ASSIGN_OR_RETURN(stmt.execute, ParseExecute());
      stmt.kind = StatementKind::kExecute;
      return stmt;
    }
    if (PeekKeyword("deallocate")) {
      SODA_ASSIGN_OR_RETURN(stmt.deallocate, ParseDeallocate());
      stmt.kind = StatementKind::kDeallocate;
      return stmt;
    }
    if (PeekKeyword("select") || PeekKeyword("with")) {
      SODA_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      stmt.kind = StatementKind::kSelect;
      return stmt;
    }
    return Unexpected(
        "a statement (SELECT/WITH/CREATE/INSERT/DROP/EXPLAIN/SET/"
        "CHECKPOINT/SCRUB/PREPARE/EXECUTE/DEALLOCATE)");
  }

  /// PREPARE name [(TYPE, ...)] AS <select | insert>.
  Result<std::unique_ptr<PrepareStmt>> ParsePrepare() {
    SODA_RETURN_NOT_OK(ExpectKeyword("prepare"));
    auto stmt = std::make_unique<PrepareStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("statement name"));
    if (Match(TokenType::kLParen)) {
      do {
        SODA_ASSIGN_OR_RETURN(std::string type_name,
                              ParseIdentifier("parameter type name"));
        SODA_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
        stmt->param_types.push_back(type);
      } while (Match(TokenType::kComma));
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    }
    SODA_RETURN_NOT_OK(ExpectKeyword("as"));
    SODA_ASSIGN_OR_RETURN(Statement body, ParseStatementImpl());
    if (body.kind != StatementKind::kSelect &&
        body.kind != StatementKind::kInsert) {
      return Status::ParseError(
          "PREPARE supports SELECT and INSERT statements only");
    }
    stmt->body = std::make_unique<Statement>(std::move(body));
    return stmt;
  }

  /// EXECUTE name [(expr, ...)].
  Result<std::unique_ptr<ExecuteStmt>> ParseExecute() {
    SODA_RETURN_NOT_OK(ExpectKeyword("execute"));
    auto stmt = std::make_unique<ExecuteStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("statement name"));
    if (Match(TokenType::kLParen)) {
      if (Peek().type != TokenType::kRParen) {
        do {
          SODA_ASSIGN_OR_RETURN(ParseExprPtr arg, ParseExpression());
          stmt->args.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
      }
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    }
    return stmt;
  }

  /// DEALLOCATE [PREPARE] name.
  Result<std::unique_ptr<DeallocateStmt>> ParseDeallocate() {
    SODA_RETURN_NOT_OK(ExpectKeyword("deallocate"));
    MatchKeyword("prepare");  // optional noise word, as in Postgres
    auto stmt = std::make_unique<DeallocateStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("statement name"));
    return stmt;
  }

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTable() {
    SODA_RETURN_NOT_OK(ExpectKeyword("create"));
    SODA_RETURN_NOT_OK(ExpectKeyword("table"));
    auto stmt = std::make_unique<CreateTableStmt>();
    if (PeekKeyword("if")) {
      Advance();
      SODA_RETURN_NOT_OK(ExpectKeyword("not"));
      SODA_RETURN_NOT_OK(ExpectKeyword("exists"));
      stmt->if_not_exists = true;
    }
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("table name"));
    // CREATE TABLE name AS <select>.
    if (MatchKeyword("as")) {
      SODA_ASSIGN_OR_RETURN(stmt->as_select, ParseSelect());
      return stmt;
    }
    SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    do {
      SODA_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      SODA_ASSIGN_OR_RETURN(std::string type_name,
                            ParseIdentifier("type name"));
      if (Match(TokenType::kLParen)) {  // VARCHAR(500) etc.
        while (Peek().type != TokenType::kRParen &&
               Peek().type != TokenType::kEof) {
          Advance();
        }
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      }
      SODA_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
      stmt->columns.emplace_back(std::move(col), type);
    } while (Match(TokenType::kComma));
    SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    if (MatchKeyword("partition")) {
      SODA_RETURN_NOT_OK(ExpectKeyword("by"));
      if (MatchKeyword("hash")) {
        stmt->partition_kind = CreateTableStmt::PartitionKind::kHash;
        SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        SODA_ASSIGN_OR_RETURN(stmt->partition_column,
                              ParseIdentifier("partition column"));
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        SODA_RETURN_NOT_OK(ExpectKeyword("partitions"));
        if (Peek().type != TokenType::kInteger) {
          return Unexpected("a partition count");
        }
        stmt->partition_count = Advance().int_value;
      } else if (MatchKeyword("range")) {
        stmt->partition_kind = CreateTableStmt::PartitionKind::kRange;
        SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        SODA_ASSIGN_OR_RETURN(stmt->partition_column,
                              ParseIdentifier("partition column"));
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        do {
          const bool negative = Match(TokenType::kMinus);
          if (Peek().type != TokenType::kInteger) {
            return Unexpected("a range bound (integer)");
          }
          int64_t bound = Advance().int_value;
          stmt->partition_bounds.push_back(negative ? -bound : bound);
        } while (Match(TokenType::kComma));
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      } else {
        return Unexpected("HASH or RANGE after PARTITION BY");
      }
    }
    return stmt;
  }

  Result<std::unique_ptr<InsertStmt>> ParseInsert() {
    SODA_RETURN_NOT_OK(ExpectKeyword("insert"));
    SODA_RETURN_NOT_OK(ExpectKeyword("into"));
    auto stmt = std::make_unique<InsertStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    if (MatchKeyword("values")) {
      do {
        SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        std::vector<ParseExprPtr> row;
        do {
          SODA_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpression());
          row.push_back(std::move(e));
        } while (Match(TokenType::kComma));
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        stmt->values_rows.push_back(std::move(row));
      } while (Match(TokenType::kComma));
      return stmt;
    }
    SODA_ASSIGN_OR_RETURN(stmt->select, ParseSelect());
    return stmt;
  }

  Result<std::unique_ptr<UpdateStmt>> ParseUpdate() {
    SODA_RETURN_NOT_OK(ExpectKeyword("update"));
    auto stmt = std::make_unique<UpdateStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    SODA_RETURN_NOT_OK(ExpectKeyword("set"));
    do {
      SODA_ASSIGN_OR_RETURN(std::string col, ParseIdentifier("column name"));
      SODA_RETURN_NOT_OK(Expect(TokenType::kEq, "'='"));
      SODA_ASSIGN_OR_RETURN(ParseExprPtr value, ParseExpression());
      stmt->assignments.emplace_back(std::move(col), std::move(value));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("where")) {
      SODA_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return stmt;
  }

  Result<std::unique_ptr<DeleteStmt>> ParseDelete() {
    SODA_RETURN_NOT_OK(ExpectKeyword("delete"));
    SODA_RETURN_NOT_OK(ExpectKeyword("from"));
    auto stmt = std::make_unique<DeleteStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->table, ParseIdentifier("table name"));
    if (MatchKeyword("where")) {
      SODA_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    return stmt;
  }

  /// SET name[.name]* = [-]integer | identifier | 'string'. The value
  /// grammar is deliberately narrow — these are engine knobs, not
  /// expressions; sign is accepted so the engine can reject negatives with
  /// a clear message, and bare words ('SET soda.wal_fsync = group') cover
  /// the enum-valued knobs.
  Result<std::unique_ptr<SetStmt>> ParseSet() {
    SODA_RETURN_NOT_OK(ExpectKeyword("set"));
    auto stmt = std::make_unique<SetStmt>();
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("setting name"));
    while (Match(TokenType::kDot)) {
      SODA_ASSIGN_OR_RETURN(std::string part,
                            ParseIdentifier("setting name"));
      stmt->name += "." + part;
    }
    SODA_RETURN_NOT_OK(Expect(TokenType::kEq, "'='"));
    if (Peek().type == TokenType::kIdent ||
        Peek().type == TokenType::kString) {
      stmt->has_text = true;
      stmt->text_value = Advance().text;
      return stmt;
    }
    const bool negative = Match(TokenType::kMinus);
    if (Peek().type != TokenType::kInteger) {
      return Unexpected("an integer or identifier setting value");
    }
    stmt->value = Advance().int_value;
    if (negative) stmt->value = -stmt->value;
    return stmt;
  }

  Result<std::unique_ptr<DropTableStmt>> ParseDropTable() {
    SODA_RETURN_NOT_OK(ExpectKeyword("drop"));
    SODA_RETURN_NOT_OK(ExpectKeyword("table"));
    auto stmt = std::make_unique<DropTableStmt>();
    if (PeekKeyword("if")) {
      Advance();
      SODA_RETURN_NOT_OK(ExpectKeyword("exists"));
      stmt->if_exists = true;
    }
    SODA_ASSIGN_OR_RETURN(stmt->name, ParseIdentifier("table name"));
    return stmt;
  }

  // --- SELECT -------------------------------------------------------------
  Result<SelectPtr> ParseSelect() {
    std::vector<CteDef> ctes;
    bool recursive = false;
    if (MatchKeyword("with")) {
      recursive = MatchKeyword("recursive");
      do {
        CteDef cte;
        SODA_ASSIGN_OR_RETURN(cte.name, ParseIdentifier("CTE name"));
        if (Match(TokenType::kLParen)) {
          do {
            SODA_ASSIGN_OR_RETURN(std::string col,
                                  ParseIdentifier("column alias"));
            cte.column_aliases.push_back(std::move(col));
          } while (Match(TokenType::kComma));
          SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        }
        SODA_RETURN_NOT_OK(ExpectKeyword("as"));
        SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        SODA_ASSIGN_OR_RETURN(cte.query, ParseSelect());
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        ctes.push_back(std::move(cte));
      } while (Match(TokenType::kComma));
    }

    SODA_ASSIGN_OR_RETURN(SelectPtr stmt, ParseQueryPrimary());
    // Outer CTEs come before any the (parenthesized) core introduced.
    for (auto it = ctes.rbegin(); it != ctes.rend(); ++it) {
      stmt->ctes.insert(stmt->ctes.begin(), std::move(*it));
    }
    stmt->recursive = stmt->recursive || recursive;

    // UNION ALL chain (branches may be parenthesized query expressions).
    SelectStmt* tail = stmt.get();
    while (tail->union_next) tail = tail->union_next.get();
    while (PeekKeyword("union")) {
      Advance();
      SODA_RETURN_NOT_OK(ExpectKeyword("all"));
      SODA_ASSIGN_OR_RETURN(SelectPtr next, ParseQueryPrimary());
      tail->union_next = std::move(next);
      while (tail->union_next) tail = tail->union_next.get();
    }

    // ORDER BY / LIMIT apply to the whole union.
    if (MatchKeyword("order")) {
      SODA_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        OrderItem item;
        SODA_ASSIGN_OR_RETURN(item.expr, ParseExpression());
        if (MatchKeyword("desc")) {
          item.descending = true;
        } else {
          MatchKeyword("asc");
        }
        stmt->order_by.push_back(std::move(item));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("limit") && !MatchKeyword("all")) {  // ALL: no limit
      if (Peek().type != TokenType::kInteger) return Unexpected("an integer");
      stmt->limit = Advance().int_value;
    }
    if (MatchKeyword("offset")) {
      if (Peek().type != TokenType::kInteger) return Unexpected("an integer");
      stmt->offset = Advance().int_value;
    }
    return stmt;
  }

  /// A select core or a parenthesized query expression — the form UNION
  /// ALL branches (e.g. recursive CTE bodies) are usually written in.
  Result<SelectPtr> ParseQueryPrimary() {
    if (Peek().type == TokenType::kLParen &&
        (PeekKeyword("select", 1) || PeekKeyword("with", 1) ||
         Peek(1).type == TokenType::kLParen)) {
      Advance();
      SODA_ASSIGN_OR_RETURN(SelectPtr stmt, ParseSelect());
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return stmt;
    }
    return ParseSelectCore();
  }

  Result<SelectPtr> ParseSelectCore() {
    SODA_RETURN_NOT_OK(ExpectKeyword("select"));
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = MatchKeyword("distinct");
    do {
      SelectItem item;
      SODA_ASSIGN_OR_RETURN(item.expr, ParseSelectExpr());
      // Optional alias: AS name | name | "name".
      if (MatchKeyword("as")) {
        SODA_ASSIGN_OR_RETURN(item.alias, ParseIdentifier("alias"));
      } else if (Peek().type == TokenType::kQuotedIdent) {
        item.alias = ToLower(Advance().text);
      } else if (Peek().type == TokenType::kIdent &&
                 !ReservedWords().count(Peek().text)) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
    } while (Match(TokenType::kComma));

    if (MatchKeyword("from")) {
      SODA_ASSIGN_OR_RETURN(stmt->from, ParseFromClause());
    }
    if (MatchKeyword("where")) {
      SODA_ASSIGN_OR_RETURN(stmt->where, ParseExpression());
    }
    if (MatchKeyword("group")) {
      SODA_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        SODA_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpression());
        stmt->group_by.push_back(std::move(e));
      } while (Match(TokenType::kComma));
    }
    if (MatchKeyword("having")) {
      SODA_ASSIGN_OR_RETURN(stmt->having, ParseExpression());
    }
    return stmt;
  }

  /// A select-list expression: `*`, `t.*`, or a scalar expression.
  Result<ParseExprPtr> ParseSelectExpr() {
    if (Peek().type == TokenType::kStar) {
      Advance();
      return std::make_unique<ParseExpr>(ParseExprKind::kStar);
    }
    if (Peek().type == TokenType::kIdent &&
        Peek(1).type == TokenType::kDot &&
        Peek(2).type == TokenType::kStar) {
      auto star = std::make_unique<ParseExpr>(ParseExprKind::kStar);
      star->qualifier = Advance().text;
      Advance();  // .
      Advance();  // *
      return star;
    }
    return ParseExpression();
  }

  // --- FROM ---------------------------------------------------------------
  Result<TableRefPtr> ParseFromClause() {
    SODA_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTableRef());
    while (Match(TokenType::kComma)) {
      SODA_ASSIGN_OR_RETURN(TableRefPtr right, ParseTableRef());
      auto join = std::make_unique<TableRef>(TableRefKind::kJoin);
      join->left = std::move(ref);
      join->right = std::move(right);
      ref = std::move(join);
    }
    return ref;
  }

  Result<TableRefPtr> ParseTableRef() {
    SODA_ASSIGN_OR_RETURN(TableRefPtr ref, ParseTablePrimary());
    for (;;) {
      bool cross = false;
      if (PeekKeyword("cross")) {
        Advance();
        cross = true;
      } else if (PeekKeyword("inner")) {
        Advance();
      } else if (PeekKeyword("left") || PeekKeyword("right") ||
                 PeekKeyword("full")) {
        return Status::NotImplemented("outer joins are not supported");
      } else if (!PeekKeyword("join")) {
        break;
      }
      SODA_RETURN_NOT_OK(ExpectKeyword("join"));
      SODA_ASSIGN_OR_RETURN(TableRefPtr right, ParseTablePrimary());
      auto join = std::make_unique<TableRef>(TableRefKind::kJoin);
      join->left = std::move(ref);
      join->right = std::move(right);
      if (!cross) {
        SODA_RETURN_NOT_OK(ExpectKeyword("on"));
        SODA_ASSIGN_OR_RETURN(join->join_condition, ParseExpression());
      }
      ref = std::move(join);
    }
    return ref;
  }

  Result<TableRefPtr> ParseTablePrimary() {
    // (subquery) alias
    if (Peek().type == TokenType::kLParen) {
      Advance();
      SODA_ASSIGN_OR_RETURN(SelectPtr sub, ParseSelect());
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      auto ref = std::make_unique<TableRef>(TableRefKind::kSubquery);
      ref->subquery = std::move(sub);
      ParseOptionalAlias(ref.get());
      return ref;
    }
    // ITERATE((init), (step), (stop))
    if (PeekKeyword("iterate") && Peek(1).type == TokenType::kLParen) {
      Advance();
      SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      auto ref = std::make_unique<TableRef>(TableRefKind::kIterate);
      SODA_ASSIGN_OR_RETURN(ref->init, ParseParenthesizedSelect());
      SODA_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      SODA_ASSIGN_OR_RETURN(ref->step, ParseParenthesizedSelect());
      SODA_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      SODA_ASSIGN_OR_RETURN(ref->stop, ParseParenthesizedSelect());
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      ParseOptionalAlias(ref.get());
      return ref;
    }
    if (Peek().type != TokenType::kIdent) {
      return Unexpected("a table reference");
    }
    std::string name = Peek().text;
    // Table function call.
    if (FindTableFunction(name) != nullptr &&
        Peek(1).type == TokenType::kLParen) {
      Advance();
      Advance();  // (
      auto ref = std::make_unique<TableRef>(TableRefKind::kTableFunction);
      ref->name = name;
      if (Peek().type != TokenType::kRParen) {
        do {
          TableFunctionArg arg;
          if (Peek().type == TokenType::kLParen &&
              (PeekKeyword("select", 1) || PeekKeyword("with", 1))) {
            SODA_ASSIGN_OR_RETURN(arg.subquery, ParseParenthesizedSelect());
          } else {
            SODA_ASSIGN_OR_RETURN(arg.expr, ParseExpression());
          }
          ref->args.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
      }
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      ParseOptionalAlias(ref.get());
      return ref;
    }
    // Plain named table / CTE.
    Advance();
    auto ref = std::make_unique<TableRef>(TableRefKind::kNamed);
    ref->name = std::move(name);
    ParseOptionalAlias(ref.get());
    return ref;
  }

  Result<SelectPtr> ParseParenthesizedSelect() {
    SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    SODA_ASSIGN_OR_RETURN(SelectPtr sub, ParseSelect());
    SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    return sub;
  }

  void ParseOptionalAlias(TableRef* ref) {
    if (MatchKeyword("as")) {
      if (Peek().type == TokenType::kIdent ||
          Peek().type == TokenType::kQuotedIdent) {
        ref->alias = ToLower(Advance().text);
      }
      return;
    }
    if (Peek().type == TokenType::kQuotedIdent) {
      ref->alias = ToLower(Advance().text);
      return;
    }
    if (Peek().type == TokenType::kIdent &&
        !ReservedWords().count(Peek().text)) {
      ref->alias = Advance().text;
    }
  }

  // --- expressions (precedence climbing) -----------------------------------
  Result<ParseExprPtr> ParseExpression() { return ParseOr(); }

  Result<ParseExprPtr> ParseOr() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAnd());
    while (MatchKeyword("or")) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAnd());
      left = MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParseExprPtr> ParseAnd() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseNot());
    while (MatchKeyword("and")) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParseNot());
      left = MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParseExprPtr> ParseNot() {
    if (MatchKeyword("not")) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr child, ParseNot());
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kUnary);
      e->unary_op = UnaryOp::kNot;
      e->children.push_back(std::move(child));
      return e;
    }
    return ParseComparison();
  }

  Result<ParseExprPtr> ParseComparison() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseConcat());

    // IS [NOT] NULL.
    if (PeekKeyword("is")) {
      Advance();
      bool negated = MatchKeyword("not");
      SODA_RETURN_NOT_OK(ExpectKeyword("null"));
      auto call = std::make_unique<ParseExpr>(ParseExprKind::kFunctionCall);
      call->name = "isnull";
      call->children.push_back(std::move(left));
      return negated ? MakeNot(std::move(call)) : std::move(call);
    }

    // [NOT] IN / BETWEEN / LIKE — desugared to basic predicates.
    bool negated = false;
    if (PeekKeyword("not") &&
        (PeekKeyword("in", 1) || PeekKeyword("between", 1) ||
         PeekKeyword("like", 1))) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("in")) {
      SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      ParseExprPtr disjunction;
      do {
        SODA_ASSIGN_OR_RETURN(ParseExprPtr candidate, ParseExpression());
        auto eq = MakeBinary(BinaryOp::kEq, CloneParseExpr(*left),
                             std::move(candidate));
        disjunction = disjunction
                          ? MakeBinary(BinaryOp::kOr, std::move(disjunction),
                                       std::move(eq))
                          : std::move(eq);
      } while (Match(TokenType::kComma));
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return negated ? MakeNot(std::move(disjunction))
                     : std::move(disjunction);
    }
    if (MatchKeyword("between")) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr lo, ParseConcat());
      SODA_RETURN_NOT_OK(ExpectKeyword("and"));
      SODA_ASSIGN_OR_RETURN(ParseExprPtr hi, ParseConcat());
      // Clone before building: argument evaluation order is unspecified,
      // so the move must not race the clone.
      ParseExprPtr left_copy = CloneParseExpr(*left);
      auto lower = MakeBinary(BinaryOp::kGe, std::move(left_copy),
                              std::move(lo));
      auto upper = MakeBinary(BinaryOp::kLe, std::move(left), std::move(hi));
      auto range = MakeBinary(BinaryOp::kAnd, std::move(lower),
                              std::move(upper));
      return negated ? MakeNot(std::move(range)) : std::move(range);
    }
    if (MatchKeyword("like")) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr pattern, ParseConcat());
      auto call = std::make_unique<ParseExpr>(ParseExprKind::kFunctionCall);
      call->name = "like";
      call->children.push_back(std::move(left));
      call->children.push_back(std::move(pattern));
      return negated ? MakeNot(std::move(call)) : std::move(call);
    }

    BinaryOp op;
    switch (Peek().type) {
      case TokenType::kEq: op = BinaryOp::kEq; break;
      case TokenType::kNe: op = BinaryOp::kNe; break;
      case TokenType::kLt: op = BinaryOp::kLt; break;
      case TokenType::kLe: op = BinaryOp::kLe; break;
      case TokenType::kGt: op = BinaryOp::kGt; break;
      case TokenType::kGe: op = BinaryOp::kGe; break;
      default:
        return left;
    }
    Advance();
    SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParseConcat());
    return MakeBinary(op, std::move(left), std::move(right));
  }

  Result<ParseExprPtr> ParseConcat() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseAdditive());
    while (Match(TokenType::kConcat)) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParseAdditive());
      left = MakeBinary(BinaryOp::kConcat, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParseExprPtr> ParseAdditive() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseMultiplicative());
    for (;;) {
      BinaryOp op;
      if (Match(TokenType::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Match(TokenType::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return left;
      }
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
  }

  Result<ParseExprPtr> ParseMultiplicative() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParsePower());
    for (;;) {
      BinaryOp op;
      if (Match(TokenType::kStar)) {
        op = BinaryOp::kMul;
      } else if (Match(TokenType::kSlash)) {
        op = BinaryOp::kDiv;
      } else if (Match(TokenType::kPercent)) {
        op = BinaryOp::kMod;
      } else {
        return left;
      }
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParsePower());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
  }

  Result<ParseExprPtr> ParsePower() {
    SODA_ASSIGN_OR_RETURN(ParseExprPtr left, ParseUnary());
    if (Match(TokenType::kCaret)) {  // right-associative
      SODA_ASSIGN_OR_RETURN(ParseExprPtr right, ParsePower());
      return MakeBinary(BinaryOp::kPow, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ParseExprPtr> ParseUnary() {
    if (Match(TokenType::kMinus)) {
      SODA_ASSIGN_OR_RETURN(ParseExprPtr child, ParseUnary());
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kUnary);
      e->unary_op = UnaryOp::kNegate;
      e->children.push_back(std::move(child));
      return e;
    }
    if (Match(TokenType::kPlus)) return ParseUnary();
    return ParsePrimary();
  }

  Result<ParseExprPtr> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kInteger: {
        Advance();
        auto e = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
        e->literal = Value::BigInt(tok.int_value);
        return e;
      }
      case TokenType::kFloat: {
        Advance();
        auto e = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
        e->literal = Value::Double(tok.float_value);
        return e;
      }
      case TokenType::kString: {
        Advance();
        auto e = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
        e->literal = Value::Varchar(tok.text);
        return e;
      }
      case TokenType::kLParen: {
        Advance();
        SODA_ASSIGN_OR_RETURN(ParseExprPtr e, ParseExpression());
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      case TokenType::kLambda:
        return ParseLambda();
      case TokenType::kParam: {
        Advance();
        auto e = std::make_unique<ParseExpr>(ParseExprKind::kParameter);
        e->param_index = static_cast<size_t>(tok.int_value);
        e->name = tok.text;  // "$n", for error messages
        return e;
      }
      case TokenType::kQuotedIdent: {
        Advance();
        auto e = std::make_unique<ParseExpr>(ParseExprKind::kColumnRef);
        e->name = ToLower(tok.text);
        return e;
      }
      case TokenType::kIdent:
        return ParseIdentExpr();
      default:
        return Unexpected("an expression");
    }
  }

  Result<ParseExprPtr> ParseLambda() {
    size_t start = Peek().offset;
    Advance();  // λ
    auto e = std::make_unique<ParseExpr>(ParseExprKind::kLambda);
    SODA_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    do {
      SODA_ASSIGN_OR_RETURN(std::string p, ParseIdentifier("lambda parameter"));
      e->lambda_params.push_back(std::move(p));
    } while (Match(TokenType::kComma));
    SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
    if (e->lambda_params.empty() || e->lambda_params.size() > 2) {
      return Status::ParseError(
          "lambda expressions take one or two tuple parameters");
    }
    SODA_ASSIGN_OR_RETURN(ParseExprPtr body, ParseExpression());
    e->source_text = "λ(...) at offset " + std::to_string(start);
    e->children.push_back(std::move(body));
    return e;
  }

  Result<ParseExprPtr> ParseIdentExpr() {
    std::string name = Advance().text;

    // CASE WHEN ... THEN ... [ELSE ...] END
    if (name == "case") {
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kCase);
      while (MatchKeyword("when")) {
        SODA_ASSIGN_OR_RETURN(ParseExprPtr cond, ParseExpression());
        SODA_RETURN_NOT_OK(ExpectKeyword("then"));
        SODA_ASSIGN_OR_RETURN(ParseExprPtr then, ParseExpression());
        e->children.push_back(std::move(cond));
        e->children.push_back(std::move(then));
      }
      if (e->children.empty()) return Unexpected("WHEN");
      if (MatchKeyword("else")) {
        SODA_ASSIGN_OR_RETURN(ParseExprPtr els, ParseExpression());
        e->children.push_back(std::move(els));
        e->case_has_else = true;
      }
      SODA_RETURN_NOT_OK(ExpectKeyword("end"));
      return e;
    }

    // CAST(expr AS TYPE)
    if (name == "cast" && Peek().type == TokenType::kLParen) {
      Advance();
      SODA_ASSIGN_OR_RETURN(ParseExprPtr child, ParseExpression());
      SODA_RETURN_NOT_OK(ExpectKeyword("as"));
      SODA_ASSIGN_OR_RETURN(std::string type_name,
                            ParseIdentifier("type name"));
      if (Match(TokenType::kLParen)) {
        while (Peek().type != TokenType::kRParen &&
               Peek().type != TokenType::kEof) {
          Advance();
        }
        SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      }
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      SODA_ASSIGN_OR_RETURN(DataType type, DataTypeFromString(type_name));
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kCast);
      e->cast_type = type;
      e->children.push_back(std::move(child));
      return e;
    }

    // NULL / TRUE / FALSE literals.
    if (name == "null") {
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
      e->literal = Value::Null();
      return e;
    }
    if (name == "true" || name == "false") {
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kLiteral);
      e->literal = Value::Bool(name == "true");
      return e;
    }

    // Bare reserved words cannot start an expression — this catches
    // mistakes like `SELECT FROM t` with a clear message instead of
    // silently treating the keyword as a column name.
    if (ReservedWords().count(name)) {
      return Status::ParseError("unexpected keyword '" + name +
                                "' where an expression was expected, "
                                "near offset " +
                                std::to_string(Peek().offset));
    }

    // Function call.
    if (Peek().type == TokenType::kLParen) {
      Advance();
      auto e = std::make_unique<ParseExpr>(ParseExprKind::kFunctionCall);
      e->name = name;
      if (Peek().type == TokenType::kStar) {  // count(*)
        Advance();
        e->children.push_back(
            std::make_unique<ParseExpr>(ParseExprKind::kStar));
      } else if (Peek().type != TokenType::kRParen) {
        do {
          SODA_ASSIGN_OR_RETURN(ParseExprPtr arg, ParseExpression());
          e->children.push_back(std::move(arg));
        } while (Match(TokenType::kComma));
      }
      SODA_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return e;
    }

    // Column reference: name or qualifier.name.
    auto e = std::make_unique<ParseExpr>(ParseExprKind::kColumnRef);
    if (Peek().type == TokenType::kDot) {
      Advance();
      e->qualifier = name;
      if (Peek().type == TokenType::kIdent ||
          Peek().type == TokenType::kQuotedIdent) {
        e->name = ToLower(Advance().text);
      } else {
        return Unexpected("a column name after '.'");
      }
    } else {
      e->name = name;
    }
    return e;
  }

  Result<std::string> ParseIdentifier(const char* what) {
    if (Peek().type == TokenType::kIdent ||
        Peek().type == TokenType::kQuotedIdent) {
      return ToLower(Advance().text);
    }
    return Unexpected(what);
  }

  static ParseExprPtr MakeBinary(BinaryOp op, ParseExprPtr l, ParseExprPtr r) {
    auto e = std::make_unique<ParseExpr>(ParseExprKind::kBinary);
    e->binary_op = op;
    e->children.push_back(std::move(l));
    e->children.push_back(std::move(r));
    return e;
  }

  static ParseExprPtr MakeNot(ParseExprPtr child) {
    auto e = std::make_unique<ParseExpr>(ParseExprKind::kUnary);
    e->unary_op = UnaryOp::kNot;
    e->children.push_back(std::move(child));
    return e;
  }

  /// Deep copy, used when desugaring duplicates an operand (IN, BETWEEN).
  static ParseExprPtr CloneParseExpr(const ParseExpr& e) {
    auto out = std::make_unique<ParseExpr>(e.kind);
    out->literal = e.literal;
    out->qualifier = e.qualifier;
    out->name = e.name;
    out->binary_op = e.binary_op;
    out->unary_op = e.unary_op;
    out->case_has_else = e.case_has_else;
    out->cast_type = e.cast_type;
    out->lambda_params = e.lambda_params;
    out->source_text = e.source_text;
    out->param_index = e.param_index;
    for (const auto& c : e.children) {
      out->children.push_back(CloneParseExpr(*c));
    }
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  SODA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseSingleStatement();
}

Result<std::vector<Statement>> ParseScript(const std::string& sql) {
  SODA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace soda
