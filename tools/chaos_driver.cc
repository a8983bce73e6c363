/// \file chaos_driver.cc
/// Crash-chaos harness: randomized kill -9 cycles against soda_server
/// under concurrent DML, asserting that every acknowledged commit
/// survives recovery.
///
///   chaos_driver --server <path/to/soda_server> --data-dir <dir>
///                [--cycles N] [--writers N] [--seed S] [--faults]
///
/// One cycle:
///   1. spawn soda_server on an ephemeral port over the shared data dir
///      (some cycles additionally arm transient fault injection via
///      SODA_FAULT_INJECT — the engine's retry layer must absorb it);
///   2. run N writer threads inserting globally unique keys into a
///      hash-partitioned table and updating each ACKed key once, recording
///      each INSERT and UPDATE the server ACKed;
///   3. after a random 100–400 ms, SIGKILL the server mid-flight;
///   4. restart it, SELECT the table back, and assert the recovered key
///      set is a superset of every ACKed INSERT and every ACKed UPDATE is
///      visible (unACKed statements may or may not have made it — both
///      are correct);
///   5. periodically run SCRUB and soda_status() on the recovered server
///      to verify the self-healing surface stays usable under chaos.
///
/// Exit code 0 = every cycle held the durability contract. Any lost ACK
/// prints the missing keys and exits 1. Deterministic per seed (modulo
/// kernel scheduling deciding *which* statements get ACKed — the
/// contract checked is schedule-independent).
///
/// Raw std::thread is deliberate here (see the raw-thread annotation):
/// the writers must live outside the server process so SIGKILL cannot
/// take the harness down with the system under test.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "util/mutex.h"
#include "util/socket.h"

namespace {

struct ServerProc {
  pid_t pid = -1;
  int out_fd = -1;  // read end of the child's stdout pipe
  uint16_t port = 0;
};

/// Forks and execs soda_server on an ephemeral port, scraping the
/// "listening on HOST:PORT" banner for the port. `fault_spec` (may be
/// empty) becomes the child's SODA_FAULT_INJECT.
bool StartServer(const std::string& server_bin, const std::string& data_dir,
                 const std::string& fault_spec, ServerProc* proc) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("chaos: pipe");
    return false;
  }
  pid_t pid = fork();
  if (pid < 0) {
    std::perror("chaos: fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: stdout -> pipe, arm faults, become the server.
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    if (!fault_spec.empty()) {
      setenv("SODA_FAULT_INJECT", fault_spec.c_str(), 1);
    } else {
      unsetenv("SODA_FAULT_INJECT");
    }
    execl(server_bin.c_str(), server_bin.c_str(), "--host", "127.0.0.1",
          "--port", "0", "--data-dir", data_dir.c_str(),
          static_cast<char*>(nullptr));
    std::fprintf(stderr, "chaos: exec %s: %s\n", server_bin.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  close(fds[1]);
  // Scrape the banner line byte-wise; the child dying first shows up as
  // EOF and fails the cycle cleanly.
  std::string line;
  char c;
  uint16_t port = 0;
  while (port == 0) {
    ssize_t n = read(fds[0], &c, 1);
    if (n <= 0) {
      std::fprintf(stderr, "chaos: server exited before listening\n");
      close(fds[0]);
      waitpid(pid, nullptr, 0);
      return false;
    }
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    size_t at = line.find("listening on ");
    size_t colon = line.rfind(':');
    if (at != std::string::npos && colon != std::string::npos) {
      port = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    }
    line.clear();
  }
  proc->pid = pid;
  proc->out_fd = fds[0];
  proc->port = port;
  return true;
}

void KillServer(ServerProc* proc, int sig) {
  if (proc->pid > 0) {
    kill(proc->pid, sig);
    waitpid(proc->pid, nullptr, 0);
    proc->pid = -1;
  }
  if (proc->out_fd >= 0) {
    close(proc->out_fd);
    proc->out_fd = -1;
  }
}

/// Connects and consumes the hello frame.
soda::Result<soda::Socket> ConnectClient(uint16_t port) {
  SODA_ASSIGN_OR_RETURN(soda::Socket sock,
                        soda::ConnectTcp("127.0.0.1", port));
  SODA_ASSIGN_OR_RETURN(soda::Frame hello,
                        soda::ReadFrame(sock, soda::kDefaultMaxFrameBytes));
  SODA_ASSIGN_OR_RETURN(soda::ServerReply reply,
                        soda::DecodeServerReply(hello));
  if (reply.type != soda::MsgType::kHello) {
    return soda::Status::ExecutionError("chaos: expected hello frame");
  }
  return sock;
}

/// One statement round-trip; shed statements (retry-after hint) are
/// retried, mirroring soda_shell's client-side backoff.
soda::Result<soda::ServerReply> RunQuery(const soda::Socket& sock,
                                         const std::string& sql) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    SODA_RETURN_NOT_OK(
        soda::WriteFrame(sock, soda::MsgType::kQuery, soda::EncodeQuery(sql)));
    SODA_ASSIGN_OR_RETURN(soda::Frame frame,
                          soda::ReadFrame(sock, soda::kDefaultMaxFrameBytes));
    SODA_ASSIGN_OR_RETURN(soda::ServerReply reply,
                          soda::DecodeServerReply(frame));
    if (reply.type == soda::MsgType::kError && reply.retry_after_ms >= 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<int64_t>(reply.retry_after_ms, 1)));
      continue;
    }
    return reply;
  }
  return soda::Status::Unavailable("chaos: statement shed repeatedly");
}

/// Runs `sql` and requires a non-error reply (used for setup/verify
/// statements, where failure fails the harness).
bool MustRun(const soda::Socket& sock, const std::string& sql) {
  auto reply = RunQuery(sock, sql);
  if (!reply.ok()) {
    std::fprintf(stderr, "chaos: %s\n  -> %s\n", sql.c_str(),
                 reply.status().ToString().c_str());
    return false;
  }
  if (reply->type == soda::MsgType::kError) {
    std::fprintf(stderr, "chaos: %s\n  -> %s\n", sql.c_str(),
                 reply->status.ToString().c_str());
    return false;
  }
  return true;
}

std::atomic<int64_t> g_next_key{1};

/// The statements a server ACKed: inserted keys, and keys whose UPDATE
/// (v = 'u<k>') committed.
struct Acked {
  std::vector<int64_t> inserted;
  std::vector<int64_t> updated;
};

/// Writer thread body: INSERT a unique key, then UPDATE it once if the
/// INSERT was ACKed, until the connection dies; merges what was ACKed into
/// `acked` (guarded by `mu`).
void WriterLoop(uint16_t port, std::atomic<bool>* stop, soda::Mutex* mu,
                Acked* acked) {
  auto sock = ConnectClient(port);
  if (!sock.ok()) return;  // server already gone: nothing ACKed, nothing owed
  Acked local;
  while (!stop->load(std::memory_order_relaxed)) {
    const int64_t k = g_next_key.fetch_add(1);
    const std::string key = std::to_string(k);
    auto reply =
        RunQuery(*sock, "INSERT INTO chaos_kv VALUES (" + key + ", 'v" +
                            key + "')");
    if (!reply.ok()) break;  // connection torn mid-statement: k not ACKed
    // Statement-level errors (shed budget, injected fault that exhausted
    // its retries) mean k was not ACKed; correctness-wise it may land in
    // the table or not — the harness only tracks ACKs.
    if (reply->type != soda::MsgType::kResult) continue;
    local.inserted.push_back(k);
    reply = RunQuery(*sock, "UPDATE chaos_kv SET v = 'u" + key +
                                "' WHERE k = " + key);
    if (!reply.ok()) break;
    if (reply->type == soda::MsgType::kResult) local.updated.push_back(k);
  }
  soda::MutexLock lock(mu);
  acked->inserted.insert(acked->inserted.end(), local.inserted.begin(),
                         local.inserted.end());
  acked->updated.insert(acked->updated.end(), local.updated.begin(),
                        local.updated.end());
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_bin;
  std::string data_dir;
  int cycles = 25;
  int writers = 4;
  unsigned seed = 1;
  bool faults = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaos: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--server") {
      server_bin = next("--server");
    } else if (arg == "--data-dir") {
      data_dir = next("--data-dir");
    } else if (arg == "--cycles") {
      cycles = std::atoi(next("--cycles"));
    } else if (arg == "--writers") {
      writers = std::atoi(next("--writers"));
    } else if (arg == "--seed") {
      seed = static_cast<unsigned>(std::atoi(next("--seed")));
    } else if (arg == "--no-faults") {
      faults = false;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_driver --server <soda_server> --data-dir "
                   "<dir> [--cycles N] [--writers N] [--seed S] "
                   "[--no-faults]\n");
      return 2;
    }
  }
  if (server_bin.empty() || data_dir.empty()) {
    std::fprintf(stderr, "chaos: --server and --data-dir are required\n");
    return 2;
  }

  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kill_after_ms(100, 400);
  // Transient faults the engine's bounded-retry layer must absorb: the
  // injection fires N times, then the retried operation succeeds, so an
  // ACK is still a real commit.
  const char* kFaultSpecs[] = {
      "wal.fsync=transient:3:2",
      "wal.append=transient:5:2",
      "checkpoint.write=transient:0:1",
      "wal.rotate=transient:0:1",
      "storage.segment_decode=transient:2:1",
  };
  std::uniform_int_distribution<int> pick_fault(
      0, static_cast<int>(sizeof(kFaultSpecs) / sizeof(kFaultSpecs[0])) - 1);

  Acked acked;
  soda::Mutex acked_mu;
  int64_t verified_rows = 0;

  for (int cycle = 1; cycle <= cycles; ++cycle) {
    std::string fault_spec;
    if (faults && cycle % 3 == 0) fault_spec = kFaultSpecs[pick_fault(rng)];

    // --- chaos half: spawn, hammer, kill -9 -----------------------------
    ServerProc proc;
    if (!StartServer(server_bin, data_dir, fault_spec, &proc)) return 1;
    {
      auto admin = ConnectClient(proc.port);
      if (!admin.ok()) {
        std::fprintf(stderr, "chaos: connect: %s\n",
                     admin.status().ToString().c_str());
        KillServer(&proc, SIGKILL);
        return 1;
      }
      if (!MustRun(*admin,
                   "CREATE TABLE IF NOT EXISTS chaos_kv (k BIGINT, v VARCHAR) "
                   "PARTITION BY HASH(k) PARTITIONS 4") ||
          !MustRun(*admin, "SET soda.wal_auto_checkpoint_records = 64")) {
        KillServer(&proc, SIGKILL);
        return 1;
      }
    }
    std::atomic<bool> stop{false};
    // analyze:allow(raw-thread: writers must outlive a SIGKILLed server)
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(writers));
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back(WriterLoop, proc.port, &stop, &acked_mu, &acked);
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(kill_after_ms(rng)));
    KillServer(&proc, SIGKILL);  // no warning, mid-statement
    stop.store(true);
    for (auto& t : threads) t.join();

    // --- recovery half: restart clean, verify every ACK survived --------
    if (!StartServer(server_bin, data_dir, "", &proc)) return 1;
    auto verify = ConnectClient(proc.port);
    if (!verify.ok()) {
      std::fprintf(stderr, "chaos: reconnect: %s\n",
                   verify.status().ToString().c_str());
      KillServer(&proc, SIGKILL);
      return 1;
    }
    auto rows = RunQuery(*verify, "SELECT k, v FROM chaos_kv");
    if (!rows.ok() || rows->type != soda::MsgType::kResult) {
      std::fprintf(stderr, "chaos: post-recovery SELECT failed: %s\n",
                   rows.ok() ? rows->status.ToString().c_str()
                             : rows.status().ToString().c_str());
      KillServer(&proc, SIGKILL);
      return 1;
    }
    std::unordered_map<int64_t, std::string> recovered;
    if (rows->table) {
      for (size_t i = 0; i < rows->table->num_rows(); ++i) {
        recovered[rows->table->column(0).GetValue(i).AsBigInt()] =
            rows->table->column(1).GetValue(i).varchar_value();
      }
    }
    std::vector<int64_t> lost;
    for (int64_t k : acked.inserted) {
      if (recovered.find(k) == recovered.end()) lost.push_back(k);
    }
    for (int64_t k : acked.updated) {
      auto it = recovered.find(k);
      if (it != recovered.end() && it->second != "u" + std::to_string(k)) {
        lost.push_back(k);
      }
    }
    if (!lost.empty()) {
      std::fprintf(stderr,
                   "chaos: cycle %d LOST %zu ACKED COMMIT(S) of %zu:\n",
                   cycle, lost.size(),
                   acked.inserted.size() + acked.updated.size());
      for (size_t i = 0; i < lost.size() && i < 20; ++i) {
        std::fprintf(stderr, "  key %lld\n",
                     static_cast<long long>(lost[i]));
      }
      KillServer(&proc, SIGKILL);
      return 1;
    }
    verified_rows = static_cast<int64_t>(recovered.size());

    // Exercise the self-healing surface on the recovered server.
    if (cycle % 5 == 0 || cycle == cycles) {
      if (!MustRun(*verify, "SCRUB") ||
          !MustRun(*verify, "SELECT * FROM soda_status()")) {
        KillServer(&proc, SIGKILL);
        return 1;
      }
    }
    KillServer(&proc, SIGKILL);
    std::printf(
        "chaos: cycle %d/%d ok (%zu acked inserts, %zu acked updates, %lld "
        "recovered%s%s)\n",
        cycle, cycles, acked.inserted.size(), acked.updated.size(),
        static_cast<long long>(verified_rows),
        fault_spec.empty() ? "" : ", faults ", fault_spec.c_str());
    std::fflush(stdout);
  }
  std::printf(
      "chaos: %d cycles, %zu acked inserts, %zu acked updates, zero lost — "
      "PASS\n",
      cycles, acked.inserted.size(), acked.updated.size());
  return 0;
}
