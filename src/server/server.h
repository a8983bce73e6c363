/// \file server.h
/// The soda network server: a TCP front end over one resident Engine,
/// built for multi-tenant robustness (the paper's "one system fits all"
/// engine, serving-scale edition — see ROADMAP.md and Shark in
/// PAPERS.md).
///
/// Threading model:
///  - one accept thread (bounded poll loop, so shutdown is observed
///    within `poll_interval_ms`);
///  - one connection-handler thread per session (capped by
///    `max_sessions`; excess connections are rejected fast with a typed
///    error frame, never queued);
///  - one short-lived watcher thread per *executing* statement (capped
///    by the admission slots) that polls the client socket and trips the
///    statement's CancelHandle the moment the peer disconnects, so an
///    abandoned query stops consuming slots and budgets.
///
/// Robustness spec (DESIGN.md §7):
///  - every statement runs under a per-session QueryGuard (deadline +
///    memory budget from the session's SET state) and a pinned catalog
///    snapshot (readers never block writers, MVCC-lite);
///  - overload sheds: AdmissionController turns slot/queue/watermark
///    pressure into immediate kResourceExhausted replies with a
///    retry-after hint;
///  - graceful drain: Shutdown() stops accepting, lets in-flight
///    statements finish within `drain_timeout_ms`, then cancels the
///    stragglers — and always joins every thread before returning;
///  - fault sites `server.accept` / `server.read` / `server.write` /
///    `server.session` make each failure mode deterministically
///    injectable (tests/server_test.cc).

#ifndef SODA_SERVER_SERVER_H_
#define SODA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/mutex.h"
#include "util/socket.h"

namespace soda {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by Server::port().
  uint16_t port = 0;
  /// Connected-session cap; connections beyond it are rejected fast.
  size_t max_sessions = 64;
  /// Statement admission control (slots, queue, watermark).
  AdmissionOptions admission;
  /// Close sessions idle longer than this; 0 = never.
  int64_t idle_timeout_ms = 0;
  /// How long Shutdown() lets in-flight statements finish before
  /// cancelling them.
  int64_t drain_timeout_ms = 5000;
  /// Per-statement defaults stamped into every new session's options
  /// (the multi-tenant budgets); -1 = inherit the engine's defaults.
  /// Sessions may tighten/loosen their own via SET soda.*.
  int64_t statement_timeout_ms = -1;
  int64_t statement_memory_limit_bytes = -1;
  /// Upper bound on one request/response frame.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Granularity at which blocked threads re-check shutdown/idle state.
  int poll_interval_ms = 50;
};

/// Monotonic counters; every field is written with relaxed atomics (they
/// are operator-facing telemetry, not synchronization).
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> sessions_rejected{0};
  std::atomic<uint64_t> statements_ok{0};
  std::atomic<uint64_t> statements_error{0};
  std::atomic<uint64_t> statements_shed{0};
  std::atomic<uint64_t> disconnect_cancels{0};
  std::atomic<uint64_t> drain_cancels{0};
  std::atomic<uint64_t> accept_faults{0};
  std::atomic<uint64_t> read_faults{0};
  std::atomic<uint64_t> write_faults{0};
};

class Server {
 public:
  /// `engine` must outlive the server and is shared with any local
  /// callers (the server adds no exclusive ownership).
  Server(Engine* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and starts accepting. Fails (and leaves the server stopped)
  /// if the address cannot be bound.
  Status Start();

  /// Graceful drain: stop accepting, finish or cancel in-flight
  /// statements within `drain_timeout_ms`, close every session, join
  /// every thread. Idempotent; safe from any thread (including a signal
  /// handler's forwarding thread, but NOT from async-signal context).
  Status Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  size_t active_sessions() const { return sessions_.count(); }
  AdmissionStats admission_stats() const { return admission_.stats(); }
  const ServerStats& stats() const { return stats_; }

 private:
  void AcceptLoop();
  void SessionLoop(SessionPtr session, std::shared_ptr<Socket> sock);
  /// Admits, executes, and answers one statement. Returns false when the
  /// connection must close (peer gone or the reply could not be sent).
  bool RunStatement(const SessionPtr& session, const Socket& sock,
                    const std::string& sql);
  /// kPrepare frame: registers a prepared statement in the session's
  /// registry. Runs WITHOUT admission — it is pure metadata work (parse +
  /// bind, no execution), so a loaded server can still prepare.
  bool RunPrepare(const SessionPtr& session, const Socket& sock,
                  const PrepareRequest& req);
  /// kExecutePrepared frame: admitted + watched like RunStatement, but
  /// enters the engine through ExecutePrepared (no SQL text).
  bool RunExecutePrepared(const SessionPtr& session, const Socket& sock,
                          const ExecutePreparedRequest& req);
  /// Shared admission + disconnect-watcher + reply plumbing.
  bool RunAdmitted(
      const SessionPtr& session, const Socket& sock,
      const std::function<Result<QueryResult>(const ExecOptions&)>& run);

  void NoteThreadFinished(uint64_t session_id) SODA_EXCLUDES(threads_mu_);
  void ReapFinishedThreads() SODA_EXCLUDES(threads_mu_);
  void JoinAllSessionThreads() SODA_EXCLUDES(threads_mu_);

  EngineOptions SessionDefaults() const;

  Engine* const engine_;
  const ServerOptions options_;

  ListenSocket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  AdmissionController admission_;
  SessionManager sessions_;
  ServerStats stats_;

  std::thread accept_thread_;  // analyze:allow(raw-thread: control plane)
  Mutex threads_mu_;
  // analyze:allow(raw-thread: control plane)
  std::map<uint64_t, std::thread> session_threads_
      SODA_GUARDED_BY(threads_mu_);
  std::vector<uint64_t> finished_threads_ SODA_GUARDED_BY(threads_mu_);
};

}  // namespace soda

#endif  // SODA_SERVER_SERVER_H_
