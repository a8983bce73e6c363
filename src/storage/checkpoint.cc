#include "storage/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/serde.h"
#include "util/crc32.h"
#include "util/query_guard.h"
#include "util/retry.h"

namespace soda {

namespace {

constexpr uint32_t kCheckpointMagic = 0x4B434453;  // "SDCK"
// v3: per-table CRC-framed blocks. The only version read or written;
// older files are rejected by CheckHeader.
constexpr uint32_t kCheckpointVersion = 3;

Status IoError(const std::string& what, const std::string& path) {
  return Status::ExecutionError("checkpoint: " + what + " failed for " +
                                path + ": " + std::strerror(errno));
}

/// fsyncs the directory itself so the rename is durable.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return IoError("fsync(dir)", dir);
  return Status::OK();
}

/// Validates the file header; the error names an unsupported version.
Status CheckHeader(uint32_t magic, uint32_t version,
                   const std::string& path) {
  if (magic != kCheckpointMagic) {
    return Status::ExecutionError("checkpoint: bad magic in " + path);
  }
  if (version != kCheckpointVersion) {
    return Status::ExecutionError("checkpoint: unsupported format version " +
                            std::to_string(version) + " in " + path +
                            " (this build reads version " +
                            std::to_string(kCheckpointVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(const std::vector<TablePtr>& tables, uint64_t last_lsn,
                       const std::string& data_dir) {
  BinaryWriter body;
  body.U32(static_cast<uint32_t>(tables.size()));
  for (const auto& table : tables) {
    // Block header (name + schema) lives outside the CRC frame so a
    // corrupt payload can still be identified and stubbed on load.
    body.Str(table->name());
    WriteSchema(table->schema(), &body);
    BinaryWriter payload;
    WriteTable(*table, &payload);
    body.U32(static_cast<uint32_t>(payload.buffer().size()));
    body.U32(Crc32(payload.buffer().data(), payload.buffer().size()));
    body.Bytes(payload.buffer().data(), payload.buffer().size());
  }

  BinaryWriter file;
  file.U32(kCheckpointMagic);
  file.U32(kCheckpointVersion);
  file.U64(last_lsn);
  file.U32(Crc32(body.buffer().data(), body.buffer().size()));
  file.U64(body.buffer().size());
  file.Bytes(body.buffer().data(), body.buffer().size());

  const std::string tmp_path = data_dir + "/" + kCheckpointTempFileName;
  const std::string final_path = data_dir + "/" + kCheckpointFileName;

  auto fail = [&](Status st) {
    ::unlink(tmp_path.c_str());
    return st;
  };

  Status probe = RetryTransient(DefaultIoRetryPolicy(), [] {
    return GuardProbe(QueryGuard::Current(), "checkpoint.write");
  });
  if (!probe.ok()) return fail(probe);

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return IoError("open", tmp_path);
  const std::string& bytes = file.buffer();
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t w = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return fail(IoError("write", tmp_path));
    }
    written += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail(IoError("fsync", tmp_path));
  }
  ::close(fd);

  probe = GuardProbe(QueryGuard::Current(), "checkpoint.rename");
  if (!probe.ok()) return fail(probe);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return fail(IoError("rename", final_path));
  }
  return SyncDir(data_dir);
}

Result<bool> LoadCheckpoint(const std::string& data_dir,
                            std::vector<TablePtr>* tables,
                            uint64_t* last_lsn) {
  const std::string path = data_dir + "/" + kCheckpointFileName;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    return IoError("open", path);
  }
  std::string data;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) data.append(buf, n);
  ::close(fd);
  if (n < 0) return IoError("read", path);

  BinaryReader r(data);
  SODA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  SODA_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  SODA_RETURN_NOT_OK(CheckHeader(magic, version, path));
  SODA_ASSIGN_OR_RETURN(uint64_t lsn, r.U64());
  SODA_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
  SODA_ASSIGN_OR_RETURN(uint64_t body_len, r.U64());
  if (body_len != r.remaining()) {
    return Status::ExecutionError("checkpoint: truncated body in " + path);
  }
  // A body-CRC mismatch alone is NOT fatal: the per-table frames
  // below localize the damage. Structural parse failures past this point
  // still hard-fail — a corrupt block header leaves nothing to recover.
  (void)crc;
  SODA_ASSIGN_OR_RETURN(uint32_t num_tables, r.U32());
  std::vector<TablePtr> loaded;
  loaded.reserve(num_tables);
  for (uint32_t i = 0; i < num_tables; ++i) {
    SODA_ASSIGN_OR_RETURN(std::string name, r.Str());
    SODA_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
    SODA_ASSIGN_OR_RETURN(uint32_t payload_len, r.U32());
    SODA_ASSIGN_OR_RETURN(uint32_t payload_crc, r.U32());
    SODA_ASSIGN_OR_RETURN(std::string_view payload, r.View(payload_len));
    TablePtr table;
    if (Crc32(payload.data(), payload.size()) == payload_crc) {
      BinaryReader tr(payload);
      auto parsed = ReadTable(&tr);
      if (parsed.ok()) table = std::move(*parsed);
    }
    if (table == nullptr) {
      // Payload corrupt beyond the segment-level recovery inside
      // ReadTable — keep the name + schema so the catalog entry exists,
      // but quarantine every read.
      table = std::make_shared<Table>(std::move(name), std::move(schema));
      table->MarkTableQuarantined();
    }
    loaded.push_back(std::move(table));
  }
  *tables = std::move(loaded);
  *last_lsn = lsn;
  return true;
}

Result<CheckpointScrubInfo> VerifyCheckpoint(const std::string& data_dir) {
  CheckpointScrubInfo info;
  const std::string path = data_dir + "/" + kCheckpointFileName;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return info;  // absent is healthy (fresh dir)
    return IoError("open", path);
  }
  info.present = true;
  std::string data;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) data.append(buf, n);
  ::close(fd);
  if (n < 0) return IoError("read", path);

  BinaryReader r(data);
  auto structural = [&]() -> Status {
    SODA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
    SODA_ASSIGN_OR_RETURN(uint32_t version, r.U32());
    SODA_RETURN_NOT_OK(CheckHeader(magic, version, path));
    SODA_ASSIGN_OR_RETURN(uint64_t lsn, r.U64());
    (void)lsn;
    SODA_ASSIGN_OR_RETURN(uint32_t body_crc, r.U32());
    SODA_ASSIGN_OR_RETURN(uint64_t body_len, r.U64());
    if (body_len != r.remaining()) {
      return Status::DataLoss("checkpoint: truncated body in " + path);
    }
    info.body_crc_ok =
        Crc32(data.data() + (data.size() - body_len), body_len) == body_crc;
    SODA_ASSIGN_OR_RETURN(uint32_t num_tables, r.U32());
    info.num_tables = num_tables;
    for (uint32_t i = 0; i < num_tables; ++i) {
      SODA_ASSIGN_OR_RETURN(std::string name, r.Str());
      SODA_ASSIGN_OR_RETURN(Schema schema, ReadSchema(&r));
      (void)schema;
      SODA_ASSIGN_OR_RETURN(uint32_t payload_len, r.U32());
      SODA_ASSIGN_OR_RETURN(uint32_t payload_crc, r.U32());
      SODA_ASSIGN_OR_RETURN(std::string_view payload, r.View(payload_len));
      if (Crc32(payload.data(), payload.size()) != payload_crc) {
        info.corrupt_tables.push_back(std::move(name));
      }
    }
    return Status::OK();
  }();
  info.structure_ok = structural.ok();
  return info;
}

}  // namespace soda
