#include "server/server.h"

#include <chrono>
#include <utility>

#include "sql/parser.h"
#include "util/query_guard.h"

namespace soda {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char kBanner[] = "soda-server proto=1";

}  // namespace

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.admission),
      sessions_(options_.max_sessions) {}

Server::~Server() {
  // analyze:allow(status: dtor cannot propagate; Shutdown is OK here)
  if (running()) (void)Shutdown();
}

EngineOptions Server::SessionDefaults() const {
  EngineOptions defaults = engine_->options();
  if (options_.statement_timeout_ms >= 0) {
    defaults.timeout_ms = options_.statement_timeout_ms;
  }
  if (options_.statement_memory_limit_bytes >= 0) {
    defaults.memory_limit_bytes = options_.statement_memory_limit_bytes;
  }
  return defaults;
}

Status Server::Start() {
  if (running()) return Status::InvalidArgument("server already running");
  auto listener = ListenSocket::Bind(options_.host, options_.port,
                                     /*backlog=*/128);
  SODA_RETURN_NOT_OK(listener.status());
  listener_ = std::move(*listener);
  port_ = listener_.port();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  // analyze:allow(raw-thread: control plane, joined by Shutdown)
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    ReapFinishedThreads();
    auto ready = listener_.WaitAcceptable(options_.poll_interval_ms);
    if (!ready.ok()) break;  // listener broken; drain path still works
    if (!*ready) continue;
    // analyze:allow(status: injected-fault message is synthetic; stats_ counts it)
    if (!FaultInjector::Global().Probe("server.accept").ok()) {
      // Injected accept failure: count it and carry on. The pending
      // connection stays in the backlog and is picked up next round —
      // a transient accept() error must never kill the server.
      stats_.accept_faults.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto sock = listener_.Accept();
    if (!sock.ok()) continue;  // e.g. client gone between poll and accept
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);

    auto session = sessions_.Create(sock->PeerName(), SessionDefaults());
    if (!session.ok()) {
      // Reject fast with a typed reply; the frame is tiny, so this
      // cannot stall the accept thread on a slow client.
      stats_.sessions_rejected.fetch_add(1, std::memory_order_relaxed);
      // analyze:allow(status: best-effort reject notice; peer may be gone)
      (void)WriteFrame(*sock, MsgType::kError,
                       EncodeError(session.status(),
                                   admission_.retry_after_hint_ms()));
      continue;
    }

    auto shared_sock = std::make_shared<Socket>(std::move(*sock));
    uint64_t id = (*session)->id();
    // analyze:allow(raw-thread: session handler, joined by Shutdown)
    std::thread handler([this, s = std::move(*session),
                         shared_sock]() mutable {
      SessionLoop(std::move(s), std::move(shared_sock));
    });
    {
      MutexLock lock(&threads_mu_);
      session_threads_.emplace(id, std::move(handler));
    }
  }
}

void Server::SessionLoop(SessionPtr session, std::shared_ptr<Socket> sock) {
  session->Touch(NowMs());
  Status st = WriteFrame(*sock, MsgType::kHello,
                         EncodeHello(session->id(), kBanner));
  while (st.ok()) {
    if (stopping_.load(std::memory_order_acquire)) {
      // analyze:allow(status: farewell frame is best-effort; session ends anyway)
      (void)WriteFrame(*sock, MsgType::kGoodbye,
                       EncodeGoodbye("server draining"));
      break;
    }
    if (options_.idle_timeout_ms > 0 &&
        NowMs() - session->last_active_ms() > options_.idle_timeout_ms) {
      // analyze:allow(status: farewell frame is best-effort; session ends anyway)
      (void)WriteFrame(*sock, MsgType::kGoodbye,
                       EncodeGoodbye("idle timeout"));
      break;
    }
    auto readable = sock->WaitReadable(options_.poll_interval_ms);
    if (!readable.ok()) break;
    if (!*readable) continue;

    // analyze:allow(status: injected-fault message is synthetic; stats_ counts it)
    if (!FaultInjector::Global().Probe("server.read").ok()) {
      // Injected torn read: the request boundary is lost, so the only
      // safe recovery is to drop the connection. The session object is
      // removed below; budgets were never acquired.
      stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    auto frame = ReadFrame(*sock, options_.max_frame_bytes);
    if (!frame.ok()) break;  // clean EOF or torn frame: close
    session->Touch(NowMs());
    bool keep_going;
    if (frame->type == MsgType::kQuery) {
      auto sql = DecodeQuery(*frame);
      if (!sql.ok()) {
        st = WriteFrame(*sock, MsgType::kError,
                        EncodeError(sql.status(), /*retry_after_ms=*/-1));
        continue;
      }
      keep_going = RunStatement(session, *sock, *sql);
    } else if (frame->type == MsgType::kPrepare) {
      auto req = DecodePrepare(*frame);
      if (!req.ok()) {
        st = WriteFrame(*sock, MsgType::kError,
                        EncodeError(req.status(), /*retry_after_ms=*/-1));
        continue;
      }
      keep_going = RunPrepare(session, *sock, *req);
    } else if (frame->type == MsgType::kExecutePrepared) {
      auto req = DecodeExecutePrepared(*frame);
      if (!req.ok()) {
        st = WriteFrame(*sock, MsgType::kError,
                        EncodeError(req.status(), /*retry_after_ms=*/-1));
        continue;
      }
      keep_going = RunExecutePrepared(session, *sock, *req);
    } else {
      st = WriteFrame(
          *sock, MsgType::kError,
          EncodeError(Status::InvalidArgument("expected a query frame"),
                      /*retry_after_ms=*/-1));
      continue;
    }
    if (!keep_going) break;
    session->Touch(NowMs());
  }
  sessions_.Remove(session->id());
  NoteThreadFinished(session->id());
}

bool Server::RunStatement(const SessionPtr& session, const Socket& sock,
                          const std::string& sql) {
  return RunAdmitted(session, sock, [&](const ExecOptions& exec) {
    return engine_->Execute(sql, exec);
  });
}

bool Server::RunPrepare(const SessionPtr& session, const Socket& sock,
                        const PrepareRequest& req) {
  // Unadmitted, so only PREPARE (parse + bind, no execution) may travel
  // in this frame — anything else must go through kQuery's admission.
  auto stmt = ParseStatement(req.sql);
  Status st = stmt.status();
  if (st.ok() && stmt->kind != StatementKind::kPrepare) {
    st = Status::InvalidArgument(
        "kPrepare frame must carry a PREPARE statement");
  }
  if (st.ok()) {
    ExecOptions exec;
    exec.session_options = &session->options();
    exec.prepared = &session->prepared();
    st = engine_->Execute(req.sql, exec).status();
  }
  session->CountStatement();
  if (st.ok()) {
    stats_.statements_ok.fetch_add(1, std::memory_order_relaxed);
    // analyze:allow(status: bool is the keep-session signal; failed write = peer gone)
    return WriteFrame(sock, MsgType::kResult, EncodeResult(nullptr)).ok();
  }
  stats_.statements_error.fetch_add(1, std::memory_order_relaxed);
  // analyze:allow(status: bool is the keep-session signal; failed write = peer gone)
  return WriteFrame(sock, MsgType::kError,
                    EncodeError(st, /*retry_after_ms=*/-1))
      .ok();
}

bool Server::RunExecutePrepared(const SessionPtr& session, const Socket& sock,
                                const ExecutePreparedRequest& req) {
  return RunAdmitted(session, sock, [&](const ExecOptions& exec) {
    return engine_->ExecutePrepared(req.name, req.params, exec);
  });
}

bool Server::RunAdmitted(
    const SessionPtr& session, const Socket& sock,
    const std::function<Result<QueryResult>(const ExecOptions&)>& run) {
  auto slot = admission_.Admit();
  if (!slot.ok()) {
    stats_.statements_shed.fetch_add(1, std::memory_order_relaxed);
    int64_t hint =
        admission_.draining() ? -1 : admission_.retry_after_hint_ms();
    // A shed statement does not end the session: the client may retry
    // after the hint on the same connection.
    // analyze:allow(status: bool is the keep-session signal; failed write = peer gone)
    return WriteFrame(sock, MsgType::kError, EncodeError(slot.status(), hint))
        .ok();
  }

  std::shared_ptr<CancelHandle> handle = session->BeginStatement();
  ExecOptions exec;
  exec.cancel = handle.get();
  exec.session_options = &session->options();
  exec.prepared = &session->prepared();

  // Disconnect watcher: while the statement runs, poll the socket so an
  // abandoned query is cancelled promptly and its slot + budgets are
  // reclaimed instead of running to completion for nobody.
  struct Watch {
    Mutex mu;
    CondVar done_cv;
    bool stop = false;
    std::atomic<bool> disconnected{false};
  } watch;
  std::thread watcher([&] {  // analyze:allow(raw-thread: control plane)
    MutexLock lock(&watch.mu);
    while (!watch.stop) {
      if (watch.done_cv.WaitFor(&watch.mu, std::chrono::milliseconds(25),
                                [&] { return watch.stop; })) {
        break;
      }
      if (sock.PeerClosed()) {
        watch.disconnected.store(true, std::memory_order_release);
        handle->Cancel();
        break;
      }
    }
  });

  auto result = run(exec);

  {
    MutexLock lock(&watch.mu);
    watch.stop = true;
    watch.done_cv.NotifyAll();
  }
  watcher.join();
  session->EndStatement();
  session->CountStatement();
  slot->Release();  // free the admission slot before replying

  if (watch.disconnected.load(std::memory_order_acquire)) {
    stats_.disconnect_cancels.fetch_add(1, std::memory_order_relaxed);
    return false;  // peer is gone; nothing to write
  }
  if (result.ok()) {
    stats_.statements_ok.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.statements_error.fetch_add(1, std::memory_order_relaxed);
    if (result.status().code() == StatusCode::kCancelled &&
        stopping_.load(std::memory_order_acquire)) {
      stats_.drain_cancels.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // analyze:allow(status: injected-fault message is synthetic; stats_ counts it)
  if (!FaultInjector::Global().Probe("server.write").ok()) {
    // Injected torn write: the reply boundary is lost mid-frame; close
    // so the client re-syncs on reconnect rather than misparse.
    stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::string body = result.ok()
                         ? EncodeResult(result->table())
                         : EncodeError(result.status(), /*retry_after_ms=*/-1);
  MsgType type = result.ok() ? MsgType::kResult : MsgType::kError;
  // analyze:allow(status: bool is the keep-session signal; failed write = peer gone)
  return WriteFrame(sock, type, body).ok();
}

Status Server::Shutdown() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (!was_running) return Status::OK();

  // 1. Stop taking new work: accept loop exits, admission rejects.
  stopping_.store(true, std::memory_order_release);
  admission_.BeginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // 2. Let in-flight statements finish inside the drain budget.
  size_t still_active = admission_.AwaitQuiesce(options_.drain_timeout_ms);

  // 3. Past the budget: cancel stragglers. Session loops then observe
  //    stopping_, say goodbye, and unwind on their own.
  if (still_active > 0) sessions_.CancelAll();

  // 4. Every handler joined before we return — no thread outlives us.
  JoinAllSessionThreads();
  return Status::OK();
}

void Server::NoteThreadFinished(uint64_t session_id) {
  MutexLock lock(&threads_mu_);
  finished_threads_.push_back(session_id);
}

void Server::ReapFinishedThreads() {
  std::vector<std::thread> done;  // analyze:allow(raw-thread: control plane)
  {
    MutexLock lock(&threads_mu_);
    for (uint64_t id : finished_threads_) {
      auto it = session_threads_.find(id);
      if (it != session_threads_.end()) {
        done.push_back(std::move(it->second));
        session_threads_.erase(it);
      }
    }
    finished_threads_.clear();
  }
  // These threads have already run NoteThreadFinished, so the joins are
  // (near-)instant; still, join outside threads_mu_ on principle.
  for (std::thread& t : done) {  // analyze:allow(raw-thread: control plane)
    if (t.joinable()) t.join();
  }
}

void Server::JoinAllSessionThreads() {
  // analyze:allow(raw-thread: control plane)
  std::map<uint64_t, std::thread> all;
  {
    MutexLock lock(&threads_mu_);
    all.swap(session_threads_);
    finished_threads_.clear();
  }
  for (auto& [_, t] : all) {
    if (t.joinable()) t.join();
  }
}

}  // namespace soda
