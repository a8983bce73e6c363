#include "client.h"

namespace sb {

soda::Result<Client> Client::Connect(uint16_t port) {
  SODA_ASSIGN_OR_RETURN(soda::Socket sock, soda::ConnectTcp("127.0.0.1", port));
  SODA_ASSIGN_OR_RETURN(soda::Frame hello,
                        soda::ReadFrame(sock, soda::kDefaultMaxFrameBytes));
  SODA_ASSIGN_OR_RETURN(soda::ServerReply reply, soda::DecodeServerReply(hello));
  if (reply.type != soda::MsgType::kHello) {
    return soda::Status::ExecutionError("expected a hello frame");
  }
  return Client(std::move(sock));
}

soda::Result<soda::TablePtr> Client::Roundtrip(soda::MsgType type,
                                               const std::string& body) {
  SODA_RETURN_NOT_OK(soda::WriteFrame(sock_, type, body));
  SODA_ASSIGN_OR_RETURN(soda::Frame frame,
                        soda::ReadFrame(sock_, soda::kDefaultMaxFrameBytes));
  SODA_ASSIGN_OR_RETURN(soda::ServerReply reply, soda::DecodeServerReply(frame));
  if (reply.type == soda::MsgType::kError) return reply.status;
  if (reply.type != soda::MsgType::kResult) {
    return soda::Status::ExecutionError("unexpected reply frame");
  }
  return reply.table;
}

soda::Result<soda::TablePtr> Client::Query(const std::string& sql) {
  return Roundtrip(soda::MsgType::kQuery, soda::EncodeQuery(sql));
}

soda::Status Client::Prepare(const std::string& name, const std::string& sql) {
  return Roundtrip(soda::MsgType::kPrepare, soda::EncodePrepare(name, sql))
      .status();
}

soda::Result<soda::TablePtr> Client::ExecutePrepared(
    const std::string& name, const std::vector<soda::Value>& params) {
  return Roundtrip(soda::MsgType::kExecutePrepared,
                   soda::EncodeExecutePrepared(name, params));
}

}  // namespace sb
