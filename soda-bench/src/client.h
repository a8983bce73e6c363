/// \file client.h
/// A minimal blocking client for soda's wire protocol (server/protocol.h):
/// one connection, one statement at a time, no retry — a shed statement
/// is reported to the caller as a failure.

#ifndef SODA_BENCH_CLIENT_H_
#define SODA_BENCH_CLIENT_H_

#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/socket.h"

namespace sb {

class Client {
 public:
  /// Connects to 127.0.0.1:`port` and consumes the hello frame.
  static soda::Result<Client> Connect(uint16_t port);

  /// Runs one statement; an error reply becomes a non-OK status.
  soda::Result<soda::TablePtr> Query(const std::string& sql);
  /// Registers `PREPARE name ... AS ...` (the full statement text).
  soda::Status Prepare(const std::string& name, const std::string& sql);
  soda::Result<soda::TablePtr> ExecutePrepared(
      const std::string& name, const std::vector<soda::Value>& params);

 private:
  explicit Client(soda::Socket sock) : sock_(std::move(sock)) {}
  soda::Result<soda::TablePtr> Roundtrip(soda::MsgType type,
                                         const std::string& body);

  soda::Socket sock_;
};

}  // namespace sb

#endif  // SODA_BENCH_CLIENT_H_
