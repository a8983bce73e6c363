#include "checks.h"

#include <algorithm>
#include <functional>

namespace soda::analyze {

namespace {

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }
bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}
bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Engine code = production sources the structural checks police.
bool InEngine(const AnalyzerConfig& cfg, const std::string& path) {
  for (const std::string& p : cfg.skip_prefixes) {
    if (HasPrefix(path, p)) return false;
  }
  if (cfg.engine_prefixes.empty()) return true;
  for (const std::string& p : cfg.engine_prefixes) {
    if (HasPrefix(path, p)) return true;
  }
  return false;
}

/// Token index of the ')' matching the '(' at `lparen` (toks.size() if
/// unbalanced).
size_t MatchParen(const std::vector<Token>& toks, size_t lparen) {
  int depth = 0;
  for (size_t i = lparen; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++depth;
    if (IsPunct(toks[i], ")") && --depth == 0) return i;
  }
  return toks.size();
}

size_t MatchBrace(const std::vector<Token>& toks, size_t lbrace) {
  int depth = 0;
  for (size_t i = lbrace; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "{")) ++depth;
    if (IsPunct(toks[i], "}") && --depth == 0) return i;
  }
  return toks.size();
}

/// `layer.point` probe-site literal shape; the `soda.*` namespace is SET
/// knobs, not sites.
bool IsSiteLiteral(const std::string& s) {
  if (s.empty() || HasPrefix(s, "soda.")) return false;
  bool dot = false;
  if (!std::islower(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s) {
    if (c == '.') {
      dot = true;
      continue;
    }
    if (!std::islower(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return dot;
}

// =========================================================================
// lock-order
// =========================================================================

struct LockOrderAnalysis {
  const SourceModel& model;
  const AnalyzerConfig& cfg;
  std::vector<Finding>* findings;

  struct Acquisition {
    std::string lock;
    int depth;  // brace depth at acquisition; released when depth pops
    int line;
  };
  struct Edge {
    std::string outer, inner;
    std::string file;
    int line;
    std::string via;  // empty = direct nesting
  };

  // function index -> directly-acquired locks (lock -> witness line)
  std::vector<std::map<std::string, int>> direct_acq;
  // function index -> transitively-acquired locks (lock -> via chain)
  std::vector<std::map<std::string, std::string>> trans_acq;
  // function index -> resolved callee function indices (deduped)
  std::vector<std::vector<size_t>> callees;
  std::vector<Edge> edges;

  explicit LockOrderAnalysis(const SourceModel& m, const AnalyzerConfig& c,
                             std::vector<Finding>* f)
      : model(m), cfg(c), findings(f) {}

  int Rank(const std::string& lock) const {
    auto it = cfg.lock_ranks.find(lock);
    return it == cfg.lock_ranks.end() ? cfg.default_lock_rank : it->second;
  }

  size_t FuncIndex(const FunctionInfo* fn) const {
    return static_cast<size_t>(fn - model.functions().data());
  }

  /// Canonical name for the mutex expression tokens [begin, end).
  std::string CanonicalLock(const FunctionInfo& fn, size_t begin,
                            size_t end) const {
    const std::vector<Token>& toks = model.files()[fn.file_index].tokens;
    std::string base;
    size_t base_pos = end;
    for (size_t i = begin; i < end; ++i) {
      if (IsIdent(toks[i])) {
        base = toks[i].text;
        base_pos = i;
      }
    }
    if (base.empty()) return "<unknown>";
    auto alias = cfg.lock_aliases.find(base);
    if (alias != cfg.lock_aliases.end()) return alias->second;
    // Receiver-qualified: `x->mu_` / `x.mu`.
    if (base_pos >= begin + 2 && (IsPunct(toks[base_pos - 1], "->") ||
                                  IsPunct(toks[base_pos - 1], "."))) {
      if (IsIdent(toks[base_pos - 2])) {
        std::string type = model.VarType(fn, toks[base_pos - 2].text);
        if (!type.empty()) return type + "::" + base;
      }
      return base;
    }
    // Bare member in a method; else a function-local mutex.
    if (!fn.class_name.empty() &&
        !model.MemberType(fn.class_name, base).empty()) {
      return fn.class_name + "::" + base;
    }
    if (!fn.class_name.empty() && HasSuffix(base, "_")) {
      return fn.class_name + "::" + base;
    }
    return fn.qualified + "::" + base;
  }

  void ScanFunction(size_t fi) {
    const FunctionInfo& fn = model.functions()[fi];
    const TokenStream& file = model.files()[fn.file_index];
    const std::vector<Token>& toks = file.tokens;
    std::vector<Acquisition> held;
    int depth = 0;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      const Token& t = toks[i];
      if (IsPunct(t, "{")) {
        ++depth;
        continue;
      }
      if (IsPunct(t, "}")) {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        continue;
      }
      if (IsIdent(t, "MutexLock")) {
        if (i + 1 < fn.body_end && IsPunct(toks[i + 1], "(")) {
          findings->push_back(
              {"lock-order", file.path, t.line,
               "MutexLock temporary is destroyed immediately — name the "
               "guard (`MutexLock lock(&mu);`)"});
          i = MatchParen(toks, i + 1);
          continue;
        }
        if (i + 2 >= fn.body_end || !IsIdent(toks[i + 1]) ||
            !IsPunct(toks[i + 2], "(")) {
          continue;  // the class definition itself, a declaration, etc.
        }
        size_t rp = MatchParen(toks, i + 2);
        std::string lock = CanonicalLock(fn, i + 3, rp);
        for (const Acquisition& h : held) {
          edges.push_back({h.lock, lock, file.path, t.line, ""});
        }
        direct_acq[fi].emplace(lock, t.line);
        held.push_back({lock, depth, t.line});
        i = rp;
        continue;
      }
      // Call site.
      if (IsIdent(t) && i + 1 < fn.body_end && IsPunct(toks[i + 1], "(") &&
          !IsTypeKeyword(t.text)) {
        std::vector<const FunctionInfo*> targets = Resolve(fn, i);
        for (const FunctionInfo* g : targets) {
          size_t gi = FuncIndex(g);
          callees[fi].push_back(gi);
          if (!held.empty()) {
            calls_under_lock.push_back(
                {fi, gi, held, file.path, t.line, g->qualified});
          }
        }
      }
    }
  }

  static bool IsTypeKeyword(const std::string& s) {
    static const std::set<std::string> kw = {
        "if",     "for",    "while",  "switch",      "return",
        "sizeof", "new",    "delete", "catch",       "assert",
        "static_cast",      "dynamic_cast",          "const_cast",
        "reinterpret_cast", "alignof", "decltype",   "defined",
    };
    return kw.count(s) != 0;
  }

  std::vector<const FunctionInfo*> Resolve(const FunctionInfo& fn,
                                           size_t tok) const {
    const std::vector<Token>& toks = model.files()[fn.file_index].tokens;
    // Singleton chain: `T::Global().Method(` — resolve through T.
    if (tok >= 6 && (IsPunct(toks[tok - 1], ".") ||
                     IsPunct(toks[tok - 1], "->")) &&
        IsPunct(toks[tok - 2], ")") && IsPunct(toks[tok - 3], "(") &&
        IsIdent(toks[tok - 4]) && IsPunct(toks[tok - 5], "::") &&
        IsIdent(toks[tok - 6])) {
      return model.Lookup(toks[tok - 6].text, toks[tok].text);
    }
    return model.ResolveCall(fn, tok);
  }

  struct CallUnderLock {
    size_t caller, callee;
    std::vector<Acquisition> held;
    std::string file;
    int line;
    std::string callee_name;
  };
  std::vector<CallUnderLock> calls_under_lock;

  void Run() {
    const size_t n = model.functions().size();
    direct_acq.resize(n);
    trans_acq.resize(n);
    callees.resize(n);
    for (size_t fi = 0; fi < n; ++fi) {
      const FunctionInfo& fn = model.functions()[fi];
      if (!InEngine(cfg, model.files()[fn.file_index].path)) continue;
      ScanFunction(fi);
    }
    // Transitive acquisition fixpoint over the resolved call graph.
    for (size_t fi = 0; fi < n; ++fi) {
      for (const auto& l : direct_acq[fi]) trans_acq[fi][l.first] = "";
    }
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 64) {
      changed = false;
      for (size_t fi = 0; fi < n; ++fi) {
        for (size_t gi : callees[fi]) {
          for (const auto& l : trans_acq[gi]) {
            if (trans_acq[fi].count(l.first) != 0) continue;
            const std::string& g_name = model.functions()[gi].qualified;
            trans_acq[fi][l.first] =
                l.second.empty() ? g_name : g_name + " -> " + l.second;
            changed = true;
          }
        }
      }
    }
    // Edges through calls made while holding locks.
    for (const CallUnderLock& c : calls_under_lock) {
      for (const auto& l : trans_acq[c.callee]) {
        for (const Acquisition& h : c.held) {
          std::string via = c.callee_name;
          if (!l.second.empty()) via += " -> " + l.second;
          edges.push_back({h.lock, l.first, c.file, c.line, via});
        }
      }
    }
    Report();
  }

  void Report() {
    std::set<std::string> seen;
    std::map<std::string, std::set<std::string>> graph;
    std::map<std::string, const Edge*> witness;
    for (const Edge& e : edges) {
      const TokenStream* file = nullptr;
      for (const TokenStream& f : model.files()) {
        if (f.path == e.file) {
          file = &f;
          break;
        }
      }
      if (file != nullptr && file->HasAllowAnnotation(e.line, "lock-order")) {
        continue;
      }
      graph[e.outer].insert(e.inner);
      witness.emplace(e.outer + "->" + e.inner, &e);
      int ro = Rank(e.outer), ri = Rank(e.inner);
      if (ri > ro) continue;
      std::string key = e.outer + "|" + e.inner + "|" + e.file + "|" +
                        std::to_string(e.line);
      if (!seen.insert(key).second) continue;
      std::string msg = "lock-order violation: '" + e.inner + "' (rank " +
                        std::to_string(ri) + ") acquired while holding '" +
                        e.outer + "' (rank " + std::to_string(ro) + ")";
      if (!e.via.empty()) msg += " via " + e.via;
      msg += "; documented order: write_mu_ -> commit_mu_ -> leaf mutexes";
      findings->push_back({"lock-order", e.file, e.line, msg});
    }
    // Cycle detection over the (non-suppressed) acquisition graph.
    std::set<std::string> done, stack;
    std::vector<std::string> path;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          if (stack.count(node) != 0) {
            // Found a cycle: path tail from node.
            auto it = std::find(path.begin(), path.end(), node);
            std::string desc;
            std::vector<std::string> cyc(it, path.end());
            std::sort(cyc.begin(), cyc.end());
            std::string id;
            for (const std::string& c : cyc) id += c + "|";
            if (!reported.insert(id).second) return;
            for (auto p = it; p != path.end(); ++p) desc += *p + " -> ";
            desc += node;
            const Edge* w = nullptr;
            auto wit = witness.find(path.back() + "->" + node);
            if (wit != witness.end()) w = wit->second;
            findings->push_back({"lock-order", w ? w->file : "<graph>",
                                 w ? w->line : 0,
                                 "lock acquisition cycle: " + desc});
            return;
          }
          if (done.count(node) != 0) return;
          stack.insert(node);
          path.push_back(node);
          auto adj = graph.find(node);
          if (adj != graph.end()) {
            for (const std::string& next : adj->second) dfs(next);
          }
          path.pop_back();
          stack.erase(node);
          done.insert(node);
        };
    for (const auto& n : graph) dfs(n.first);
  }
};

// =========================================================================
// status discipline
// =========================================================================

bool CallReturnsStatusish(const SourceModel& model, const FunctionInfo& fn,
                          size_t tok, bool* is_result) {
  // Singleton chain first (FaultInjector::Global().Probe(...)).
  const std::vector<Token>& toks = model.files()[fn.file_index].tokens;
  std::vector<const FunctionInfo*> targets;
  if (tok >= 6 && (IsPunct(toks[tok - 1], ".") ||
                   IsPunct(toks[tok - 1], "->")) &&
      IsPunct(toks[tok - 2], ")") && IsPunct(toks[tok - 3], "(") &&
      IsIdent(toks[tok - 4]) && IsPunct(toks[tok - 5], "::") &&
      IsIdent(toks[tok - 6])) {
    targets = model.Lookup(toks[tok - 6].text, toks[tok].text);
  } else {
    targets = model.ResolveCall(fn, tok);
  }
  for (const FunctionInfo* g : targets) {
    if (g->returns_status || g->returns_result) {
      if (is_result != nullptr) *is_result = g->returns_result;
      return true;
    }
  }
  return false;
}

void CheckStatusDiscipline(const SourceModel& model,
                           const AnalyzerConfig& cfg,
                           std::vector<Finding>* findings) {
  for (int f = 0; f < static_cast<int>(model.files().size()); ++f) {
    const TokenStream& file = model.files()[f];
    if (!InEngine(cfg, file.path)) continue;
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      // --- status-discard: (void)Call(...) --------------------------------
      if (IsPunct(toks[i], "(") && IsIdent(toks[i + 1], "void") &&
          IsPunct(toks[i + 2], ")")) {
        const FunctionInfo* fn = model.EnclosingFunction(f, i);
        if (fn == nullptr) continue;
        for (size_t j = i + 3; j + 1 < toks.size() && j < i + 40; ++j) {
          if (IsPunct(toks[j], ";")) break;
          if (IsIdent(toks[j]) && IsPunct(toks[j + 1], "(")) {
            // Walk the call chain: prefer the *last* resolvable call so
            // `a.b(x).c()` is judged by `c`.
            size_t call = j;
            size_t probe = j;
            while (probe + 1 < toks.size() && !IsPunct(toks[probe], ";")) {
              if (IsIdent(toks[probe]) && IsPunct(toks[probe + 1], "(")) {
                call = probe;
                probe = MatchParen(toks, probe + 1);
                continue;
              }
              ++probe;
            }
            if (CallReturnsStatusish(model, *fn, call, nullptr) &&
                !file.HasAllowAnnotation(toks[i].line, "status")) {
              findings->push_back(
                  {"status-discard", file.path, toks[i].line,
                   "(void)-discarded " + std::string("Status/Result from '") +
                       toks[call].text +
                       "' — handle it, or annotate analyze:allow(status: "
                       "reason)"});
            }
            break;
          }
        }
      }
      // --- status-collapse: Call(...).ok() --------------------------------
      if (IsIdent(toks[i]) && IsPunct(toks[i + 1], "(") &&
          !LockOrderAnalysis::IsTypeKeyword(toks[i].text)) {
        size_t rp = MatchParen(toks, i + 1);
        if (rp + 4 < toks.size() && IsPunct(toks[rp + 1], ".") &&
            IsIdent(toks[rp + 2], "ok") && IsPunct(toks[rp + 3], "(") &&
            IsPunct(toks[rp + 4], ")")) {
          const FunctionInfo* fn = model.EnclosingFunction(f, i);
          bool is_result = false;
          if (fn != nullptr &&
              CallReturnsStatusish(model, *fn, i, &is_result) &&
              !file.HasAllowAnnotation(toks[i].line, "status")) {
            findings->push_back(
                {"status-collapse", file.path, toks[i].line,
                 "'" + toks[i].text + "(...).ok()' collapses a " +
                     (is_result ? std::string("Result") :
                                  std::string("Status")) +
                     " to bool and drops the error message — bind it to a "
                     "variable, or annotate analyze:allow(status: reason)"});
          }
        }
      }
      // --- status-provenance ---------------------------------------------
      for (const auto& prov : cfg.provenance) {
        const std::string& code = prov.first;
        bool construction = false;
        // Status::DataLoss(
        if (IsIdent(toks[i], "Status") && IsPunct(toks[i + 1], "::") &&
            IsIdent(toks[i + 2]) && toks[i + 2].text == code &&
            i + 3 < toks.size() && IsPunct(toks[i + 3], "(")) {
          construction = true;
        }
        // Status(StatusCode::kDataLoss
        if (IsIdent(toks[i], "Status") && IsPunct(toks[i + 1], "(") &&
            i + 4 < toks.size() && IsIdent(toks[i + 2], "StatusCode") &&
            IsPunct(toks[i + 3], "::") &&
            toks[i + 4].text == "k" + code) {
          construction = true;
        }
        if (!construction) continue;
        bool allowed = false;
        for (const std::string& p : prov.second) {
          if (HasPrefix(file.path, p)) allowed = true;
        }
        if (!allowed && !file.HasAllowAnnotation(toks[i].line, "status")) {
          findings->push_back(
              {"status-provenance", file.path, toks[i].line,
               "Status code k" + code + " constructed outside its owning "
               "layer (" + prov.second.front() +
               ") — return the layer's error instead, or annotate "
               "analyze:allow(status: reason)"});
        }
      }
    }
  }
}

// =========================================================================
// guard-probe coverage
// =========================================================================

bool RangeHasProbe(const std::vector<Token>& toks, size_t begin, size_t end) {
  for (size_t i = begin; i < end && i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;
    const std::string& s = toks[i].text;
    if (s == "GuardProbe" || s == "GuardReserve") return true;
    if ((s == "Check" || s == "ReserveBytes" || s == "Probe") && i > 0 &&
        (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
      return true;
    }
  }
  return false;
}

void CheckGuardProbe(const SourceModel& model, const AnalyzerConfig& cfg,
                     std::vector<Finding>* findings) {
  for (const FunctionInfo& fn : model.functions()) {
    const TokenStream& file = model.files()[fn.file_index];
    bool in_scope = false;
    for (const std::string& p : cfg.probe_loop_prefixes) {
      if (HasPrefix(file.path, p)) in_scope = true;
    }
    if (!in_scope || !HasSuffix(file.path, ".cc")) continue;
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!IsIdent(toks[i]) ||
          (toks[i].text != "for" && toks[i].text != "while")) {
        continue;
      }
      if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(")) continue;
      size_t header_end = MatchParen(toks, i + 1);
      bool row_loop = false;
      for (size_t h = i + 2; h < header_end; ++h) {
        if (IsIdent(toks[h]) && cfg.row_loop_idents.count(toks[h].text)) {
          row_loop = true;
        }
      }
      if (!row_loop) continue;
      // Satisfied by a probe anywhere in the enclosing function...
      bool ok = RangeHasProbe(toks, fn.body_begin, fn.body_end);
      // ...or one call level away: the project's charging helpers
      // (ChargeAppend, etc.) hold the actual GuardReserve.
      for (size_t j = fn.body_begin; !ok && j < fn.body_end; ++j) {
        if (!IsIdent(toks[j]) || j + 1 >= toks.size() ||
            !IsPunct(toks[j + 1], "(")) {
          continue;
        }
        for (const FunctionInfo* g : model.ResolveCall(fn, j)) {
          const std::vector<Token>& gt = model.files()[g->file_index].tokens;
          if (RangeHasProbe(gt, g->body_begin, g->body_end)) ok = true;
        }
      }
      if (!ok && !file.HasAllowAnnotation(toks[i].line, "guard-probe")) {
        findings->push_back(
            {"guard-probe", file.path, toks[i].line,
             "row/morsel loop in '" + fn.qualified +
                 "' has no QueryGuard probe on any path — a runaway query "
                 "cannot be cancelled here; add a GuardProbe/GuardReserve "
                 "or annotate analyze:allow(guard-probe: reason)"});
      }
    }
  }
}

// =========================================================================
// fault-site integrity
// =========================================================================

void CheckFaultSites(const SourceModel& model, const AnalyzerConfig& cfg,
                     std::vector<Finding>* findings) {
  // 1. Parse the registry.
  const TokenStream* registry = nullptr;
  for (const TokenStream& f : model.files()) {
    if (HasSuffix(f.path, cfg.registry_suffix)) {
      registry = &f;
      break;
    }
  }
  if (registry == nullptr) {
    findings->push_back({"fault-site", cfg.registry_suffix, 0,
                         "fault-site registry not found in the analysis "
                         "set (looked for path suffix '" +
                             cfg.registry_suffix + "')"});
    return;
  }
  std::map<std::string, int> registered;  // site -> line
  {
    const std::vector<Token>& toks = registry->tokens;
    size_t start = toks.size();
    for (size_t i = 0; i < toks.size(); ++i) {
      if (IsIdent(toks[i], "kFaultSites")) {
        start = i;
        break;
      }
    }
    int depth = 0;
    for (size_t i = start; i < toks.size(); ++i) {
      if (IsPunct(toks[i], "{")) {
        ++depth;
        if (i + 1 < toks.size() && toks[i + 1].kind == TokKind::kString &&
            IsSiteLiteral(toks[i + 1].text)) {
          registered.emplace(toks[i + 1].text, toks[i + 1].line);
        }
        continue;
      }
      if (IsPunct(toks[i], "}")) --depth;
      if (IsPunct(toks[i], ";") && depth == 0 && i > start) break;
    }
  }

  // 2. Probe-site literals at call sites in src/.
  static const std::set<std::string> kProbeCalls = {
      "GuardProbe", "GuardReserve", "Probe", "Check", "ReserveBytes"};
  struct Usage {
    std::string file;
    int line;
  };
  std::map<std::string, Usage> used;
  std::vector<std::pair<std::string, Usage>> unregistered;
  for (const TokenStream& f : model.files()) {
    if (!InEngine(cfg, f.path) || HasSuffix(f.path, cfg.registry_suffix)) {
      continue;
    }
    const std::vector<Token>& toks = f.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      // Site constants: `constexpr char kFooSite[] = "layer.point";` —
      // the project's idiom for sites probed more than once. The "Site"
      // name suffix keeps filename constants ("checkpoint.soda") out.
      if (IsIdent(toks[i], "char") && i + 5 < toks.size() &&
          IsIdent(toks[i + 1]) && HasSuffix(toks[i + 1].text, "Site") &&
          IsPunct(toks[i + 2], "[") &&
          IsPunct(toks[i + 3], "]") && IsPunct(toks[i + 4], "=") &&
          toks[i + 5].kind == TokKind::kString &&
          IsSiteLiteral(toks[i + 5].text)) {
        Usage u{f.path, toks[i + 5].line};
        used.emplace(toks[i + 5].text, u);
        if (registered.count(toks[i + 5].text) == 0 &&
            !f.HasAllowAnnotation(toks[i + 5].line, "fault-site")) {
          unregistered.emplace_back(toks[i + 5].text, u);
        }
        i += 5;
        continue;
      }
      if (!IsIdent(toks[i]) || kProbeCalls.count(toks[i].text) == 0 ||
          !IsPunct(toks[i + 1], "(")) {
        continue;
      }
      size_t rp = MatchParen(toks, i + 1);
      for (size_t j = i + 2; j < rp; ++j) {
        if (toks[j].kind != TokKind::kString) continue;
        if (IsSiteLiteral(toks[j].text)) {
          Usage u{f.path, toks[j].line};
          used.emplace(toks[j].text, u);
          if (registered.count(toks[j].text) == 0 &&
              !f.HasAllowAnnotation(toks[j].line, "fault-site")) {
            unregistered.emplace_back(toks[j].text, u);
          }
        }
        break;  // only the first literal argument names the site
      }
    }
  }

  // 3. Every registered site must be referenced by the test tree.
  std::set<std::string> test_refs;
  for (const TokenStream& f : model.files()) {
    if (!HasPrefix(f.path, cfg.tests_prefix)) continue;
    for (const Token& t : f.tokens) {
      if (t.kind == TokKind::kString) test_refs.insert(t.text);
    }
  }

  for (const auto& u : unregistered) {
    findings->push_back({"fault-site", u.second.file, u.second.line,
                         "probe site '" + u.first +
                             "' is not registered in " + cfg.registry_suffix});
  }
  for (const auto& r : registered) {
    if (used.count(r.first) == 0 &&
        !registry->HasAllowAnnotation(r.second, "fault-site")) {
      findings->push_back({"fault-site", registry->path, r.second,
                           "registered fault site '" + r.first +
                               "' has no probe call site in src/ — remove "
                               "it or wire the probe"});
    }
    if (test_refs.count(r.first) == 0 &&
        !registry->HasAllowAnnotation(r.second, "fault-site")) {
      findings->push_back({"fault-site", registry->path, r.second,
                           "registered fault site '" + r.first +
                               "' is never referenced under " +
                               cfg.tests_prefix +
                               " — the robustness matrix cannot be "
                               "covering it"});
    }
  }
}

// =========================================================================
// serde bounds discipline
// =========================================================================

void CheckSerdeBounds(const SourceModel& model, const AnalyzerConfig& cfg,
                      std::vector<Finding>* findings) {
  for (const FunctionInfo& fn : model.functions()) {
    const TokenStream& file = model.files()[fn.file_index];
    bool in_scope = false;
    for (const std::string& p : cfg.serde_prefixes) {
      if (HasPrefix(file.path, p)) in_scope = true;
    }
    if (!in_scope) continue;
    if (cfg.serde_codec_classes.count(fn.class_name) != 0) continue;
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!IsIdent(toks[i])) continue;
      // memcpy/memmove over offset payload pointers.
      if ((toks[i].text == "memcpy" || toks[i].text == "memmove") &&
          i + 1 < toks.size() && IsPunct(toks[i + 1], "(")) {
        size_t rp = MatchParen(toks, i + 1);
        bool offset_access = false;
        for (size_t j = i + 2; j + 3 < rp; ++j) {
          if (IsIdent(toks[j], "data") && IsPunct(toks[j + 1], "(") &&
              IsPunct(toks[j + 2], ")") && IsPunct(toks[j + 3], "+")) {
            offset_access = true;
          }
          if (IsPunct(toks[j], "[")) offset_access = true;
        }
        if (offset_access &&
            !file.HasAllowAnnotation(toks[i].line, "serde-bounds")) {
          findings->push_back(
              {"serde-bounds", file.path, toks[i].line,
               "raw offset copy out of a serialized payload in '" +
                   fn.qualified +
                   "' — go through BinaryReader::Bytes/View so truncated "
                   "frames fail cleanly, or annotate "
                   "analyze:allow(serde-bounds: reason)"});
        }
        i = rp;
        continue;
      }
      // Direct subscripts into payload buffers.
      if (cfg.payload_idents.count(toks[i].text) != 0 &&
          i + 1 < toks.size() && IsPunct(toks[i + 1], "[") &&
          !file.HasAllowAnnotation(toks[i].line, "serde-bounds")) {
        findings->push_back(
            {"serde-bounds", file.path, toks[i].line,
             "raw subscript into payload buffer '" + toks[i].text +
                 "' in '" + fn.qualified +
                 "' — go through BinaryReader, or annotate "
                 "analyze:allow(serde-bounds: reason)"});
      }
    }
  }
}

// =========================================================================
// fsync/ftruncate discard (token-exact successor of lint.sh rule 3)
// =========================================================================

void CheckFsyncDiscard(const SourceModel& model, const AnalyzerConfig& cfg,
                       std::vector<Finding>* findings) {
  for (const TokenStream& file : model.files()) {
    if (!InEngine(cfg, file.path)) continue;
    const std::vector<Token>& toks = file.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      const std::string& s = toks[i].text;
      if (s != "fsync" && s != "fdatasync" && s != "ftruncate") continue;
      if (!IsPunct(toks[i + 1], "(")) continue;
      long j = static_cast<long>(i) - 1;
      if (j >= 0 && IsPunct(toks[j], "::")) --j;
      bool statement_position =
          j < 0 || IsPunct(toks[j], ";") || IsPunct(toks[j], "{") ||
          IsPunct(toks[j], "}");
      if (!statement_position) continue;
      if (file.HasAllowAnnotation(toks[i].line, "fsync")) continue;
      findings->push_back(
          {"fsync-discard", file.path, toks[i].line,
           "result of " + s + "() discarded — a swallowed sync failure is "
           "a silent durability hole; check it or annotate "
           "analyze:allow(fsync: reason)"});
    }
  }
}

// =========================================================================
// banned token sequences (token-exact successors of lint.sh rules 1, 2, 4)
// =========================================================================

/// Reports, as `check`, every token position in files under `prefixes`
/// where `match` names a banned spelling, except in files under `owner`
/// and on lines annotated `analyze:allow(<check>: reason)`. Comments and
/// strings never match: they are not tokens.
void CheckBannedTokens(
    const SourceModel& model, const std::string& check,
    const std::vector<std::string>& prefixes, const std::string& owner,
    const std::function<std::string(const std::vector<Token>&, size_t)>& match,
    const std::string& why, std::vector<Finding>* findings) {
  for (const TokenStream& file : model.files()) {
    if (HasPrefix(file.path, owner)) continue;
    bool in_scope = false;
    for (const std::string& p : prefixes) {
      if (HasPrefix(file.path, p)) in_scope = true;
    }
    if (!in_scope) continue;
    for (size_t i = 0; i < file.tokens.size(); ++i) {
      const std::string what = match(file.tokens, i);
      if (what.empty() || file.HasAllowAnnotation(file.tokens[i].line, check)) {
        continue;
      }
      findings->push_back({check, file.path, file.tokens[i].line,
                           what + " outside " + owner + " " + why +
                               ", or annotate analyze:allow(" + check +
                               ": reason)"});
    }
  }
}

/// `std::<name>` at token i with `name` in `names`, else "".
std::string StdName(const std::vector<Token>& toks, size_t i,
                    const std::set<std::string>& names) {
  if (i + 2 >= toks.size() || !IsIdent(toks[i], "std") ||
      !IsPunct(toks[i + 1], "::") || !IsIdent(toks[i + 2]) ||
      names.count(toks[i + 2].text) == 0) {
    return "";
  }
  return "std::" + toks[i + 2].text;
}

void CheckRawSync(const SourceModel& model, const AnalyzerConfig& cfg,
                  std::vector<Finding>* findings) {
  static const std::set<std::string> kBanned = {
      "mutex",      "recursive_mutex", "shared_mutex", "condition_variable",
      "lock_guard", "unique_lock",     "scoped_lock"};
  CheckBannedTokens(
      model, "raw-sync", cfg.raw_sync_prefixes, cfg.raw_sync_owner,
      [](const std::vector<Token>& toks, size_t i) {
        return StdName(toks, i, kBanned);
      },
      "is invisible to the thread-safety analysis — use soda::Mutex / "
      "MutexLock / CondVar",
      findings);
}

void CheckRawThread(const SourceModel& model, const AnalyzerConfig& cfg,
                    std::vector<Finding>* findings) {
  CheckBannedTokens(
      model, "raw-thread", cfg.raw_thread_prefixes, cfg.raw_thread_owner,
      [](const std::vector<Token>& toks, size_t i) {
        return StdName(toks, i, {"thread"});
      },
      "escapes cancellation, WaitIdle and the pool's worker accounting — "
      "run query work through ParallelFor / the ThreadPool",
      findings);
}

void CheckRawAnnotation(const SourceModel& model, const AnalyzerConfig& cfg,
                        std::vector<Finding>* findings) {
  static const std::set<std::string> kAttributes = {
      "guarded_by", "exclusive_locks_required", "capability",
      "acquire_capability"};
  CheckBannedTokens(
      model, "raw-annotation", cfg.raw_sync_prefixes,
      cfg.raw_annotation_owner,
      [](const std::vector<Token>& toks, size_t i) -> std::string {
        if (i + 3 >= toks.size() || !IsIdent(toks[i], "__attribute__") ||
            !IsPunct(toks[i + 1], "(") || !IsPunct(toks[i + 2], "(") ||
            !IsIdent(toks[i + 3]) || kAttributes.count(toks[i + 3].text) == 0) {
          return "";
        }
        return "__attribute__((" + toks[i + 3].text + "))";
      },
      "breaks the GCC no-op fallback — use the SODA_* macros", findings);
}

}  // namespace

std::vector<Finding> RunChecks(const SourceModel& model,
                               const AnalyzerConfig& config,
                               const std::set<std::string>& only) {
  std::vector<Finding> findings;
  auto enabled = [&only](const char* id) {
    return only.empty() || only.count(id) != 0;
  };
  if (enabled("lock-order")) {
    LockOrderAnalysis lock(model, config, &findings);
    lock.Run();
  }
  if (enabled("status-discard") || enabled("status-collapse") ||
      enabled("status-provenance")) {
    std::vector<Finding> status;
    CheckStatusDiscipline(model, config, &status);
    for (Finding& f : status) {
      if (enabled(f.check.c_str())) findings.push_back(std::move(f));
    }
  }
  if (enabled("guard-probe")) CheckGuardProbe(model, config, &findings);
  if (enabled("fault-site")) CheckFaultSites(model, config, &findings);
  if (enabled("serde-bounds")) CheckSerdeBounds(model, config, &findings);
  if (enabled("fsync-discard")) CheckFsyncDiscard(model, config, &findings);
  if (enabled("raw-sync")) CheckRawSync(model, config, &findings);
  if (enabled("raw-thread")) CheckRawThread(model, config, &findings);
  if (enabled("raw-annotation")) {
    CheckRawAnnotation(model, config, &findings);
  }
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.Key() == b.Key() && a.line == b.line;
                             }),
                 findings.end());
  return findings;
}

}  // namespace soda::analyze
