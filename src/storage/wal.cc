#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/serde.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/query_guard.h"
#include "util/retry.h"

namespace soda {

namespace {

constexpr uint32_t kWalMagic = 0x4C574453;  // "SDWL"
constexpr size_t kFrameHeaderBytes = 12;    // magic + crc + len

Status IoError(const std::string& what, const std::string& path) {
  return Status::ExecutionError("wal: " + what + " failed for " + path +
                                ": " + std::strerror(errno));
}

void WriteDelta(const TableDelta& delta, BinaryWriter* w) {
  w->Str(delta.table);
  WriteSchema(delta.schema, w);
  w->U8(delta.create ? 1 : 0);
  if (delta.create) WritePartitionSpec(delta.spec, w);
  w->U64(delta.prev_rows);
  w->U64(delta.prev_groups);
  w->U32(static_cast<uint32_t>(delta.replaced.size()));
  for (const auto& [g, groups] : delta.replaced) {
    w->U64(g);
    w->U32(static_cast<uint32_t>(groups.size()));
    for (const RowGroup& group : groups) {
      w->U64(group[0]->row_count());
      WriteRowGroup(group, w);
    }
  }
  w->U32(static_cast<uint32_t>(delta.appended.size()));
  for (const Column& col : delta.appended) WriteColumn(col, w);
}

Result<TableDelta> ReadDelta(BinaryReader* r) {
  TableDelta delta;
  SODA_ASSIGN_OR_RETURN(delta.table, r->Str());
  SODA_ASSIGN_OR_RETURN(delta.schema, ReadSchema(r));
  SODA_ASSIGN_OR_RETURN(uint8_t create, r->U8());
  delta.create = create != 0;
  if (delta.create) {
    SODA_ASSIGN_OR_RETURN(delta.spec, ReadPartitionSpec(r));
  }
  SODA_ASSIGN_OR_RETURN(delta.prev_rows, r->U64());
  SODA_ASSIGN_OR_RETURN(delta.prev_groups, r->U64());
  SODA_ASSIGN_OR_RETURN(uint32_t num_replaced, r->U32());
  for (uint32_t i = 0; i < num_replaced; ++i) {
    SODA_ASSIGN_OR_RETURN(uint64_t g, r->U64());
    SODA_ASSIGN_OR_RETURN(uint32_t num_groups, r->U32());
    delta.replaced.emplace_back(g, std::vector<RowGroup>());
    for (uint32_t k = 0; k < num_groups; ++k) {
      SODA_ASSIGN_OR_RETURN(uint64_t rows, r->U64());
      // EncodeGroups' bounds; a larger count must not size a placeholder.
      bool corrupt = rows == 0 || rows > kSegmentRows;
      if (!corrupt) {
        SODA_ASSIGN_OR_RETURN(RowGroup group,
                              ReadRowGroup(r, delta.schema, rows, &corrupt));
        delta.replaced.back().second.push_back(std::move(group));
      }
      if (corrupt) return Status::ExecutionError("wal: corrupt row group");
    }
  }
  SODA_ASSIGN_OR_RETURN(uint32_t num_appended, r->U32());
  for (uint32_t c = 0; c < num_appended; ++c) {
    SODA_ASSIGN_OR_RETURN(Column col, ReadColumn(r));
    delta.appended.push_back(std::move(col));
  }
  return delta;
}

/// Decodes one payload into a WalRecord; failure fails recovery.
Result<WalRecord> DecodePayload(std::string_view payload) {
  BinaryReader r(payload);
  WalRecord rec;
  SODA_ASSIGN_OR_RETURN(rec.lsn, r.U64());
  SODA_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  switch (type) {
    case static_cast<uint8_t>(WalRecordType::kDropTable): {
      rec.type = WalRecordType::kDropTable;
      SODA_ASSIGN_OR_RETURN(rec.delta.table, r.Str());
      break;
    }
    case static_cast<uint8_t>(WalRecordType::kTableWrite): {
      rec.type = WalRecordType::kTableWrite;
      SODA_ASSIGN_OR_RETURN(rec.delta, ReadDelta(&r));
      break;
    }
    default:
      return Status::ExecutionError("unknown record type " +
                                    std::to_string(type));
  }
  if (!r.AtEnd()) return Status::ExecutionError("trailing bytes");
  return rec;
}

}  // namespace

Result<WalFsyncMode> WalFsyncModeFromString(const std::string& name) {
  if (name == "on") return WalFsyncMode::kOn;
  if (name == "off") return WalFsyncMode::kOff;
  if (name == "group") return WalFsyncMode::kGroup;
  return Status::InvalidArgument("soda.wal_fsync: expected on|off|group, got '" +
                                 name + "'");
}

const char* WalFsyncModeToString(WalFsyncMode mode) {
  switch (mode) {
    case WalFsyncMode::kOff:
      return "off";
    case WalFsyncMode::kOn:
      return "on";
    case WalFsyncMode::kGroup:
      return "group";
  }
  return "?";
}

Result<std::unique_ptr<Wal>> Wal::Open(std::string path,
                                       std::vector<WalRecord>* recovered) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("open", path);

  // Read the whole existing log; WALs are truncated at every checkpoint,
  // so the tail being replayed is bounded by checkpoint cadence.
  std::string data;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) data.append(buf, n);
  if (n < 0) {
    ::close(fd);
    return IoError("read", path);
  }

  // Scan valid records; stop at the first torn/corrupt frame.
  size_t pos = 0;
  size_t valid_end = 0;
  uint64_t last_lsn = 0;
  size_t record_count = 0;
  while (pos + kFrameHeaderBytes <= data.size()) {
    uint32_t magic, crc, len;
    std::memcpy(&magic, data.data() + pos, 4);
    std::memcpy(&crc, data.data() + pos + 4, 4);
    std::memcpy(&len, data.data() + pos + 8, 4);
    if (magic != kWalMagic) break;
    if (len > data.size() - pos - kFrameHeaderBytes) break;  // torn write
    std::string_view payload(data.data() + pos + kFrameHeaderBytes, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;
    auto rec = DecodePayload(payload);
    if (!rec.ok()) {
      // The frame is whole and its CRC matches, so this is no torn write:
      // it is a record this build cannot read (e.g. written by an older
      // format). Truncating would drop it and every commit after it.
      ::close(fd);
      return Status::DataLoss(
          "wal: record at offset " + std::to_string(pos) + " of " + path +
          " cannot be decoded (" + rec.status().message() +
          "); the log was left untouched — replay it with the build that "
          "wrote it and run CHECKPOINT there");
    }
    last_lsn = rec->lsn;
    ++record_count;
    if (recovered) recovered->push_back(std::move(rec.ValueOrDie()));
    pos += kFrameHeaderBytes + len;
    valid_end = pos;
  }
  if (valid_end < data.size()) {
    // Repair the torn tail so new records append on a record boundary.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      ::close(fd);
      return IoError("ftruncate", path);
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    ::close(fd);
    return IoError("lseek", path);
  }
  return std::unique_ptr<Wal>(
      new Wal(std::move(path), fd, valid_end, last_lsn, record_count));
}

Wal::Wal(std::string path, int fd, uint64_t file_size, uint64_t last_lsn,
         size_t record_count)
    : path_(std::move(path)),
      fd_(fd),
      file_size_(file_size),
      last_lsn_(last_lsn),
      record_count_(record_count) {}

Wal::~Wal() {
  MutexLock lock(&mu_);
  if (fd_ >= 0) {
    if (mode_ != WalFsyncMode::kOff && unsynced_bytes_ > 0) {
      // Best effort: clean shutdown drains group commits. The destructor
      // cannot fail, so a sync error is only logged.
      if (::fsync(fd_) != 0) {
        SODA_LOG(Warn) << "wal: final fsync failed for " << path_ << ": "
                       << std::strerror(errno);
      }
    }
    ::close(fd_);
  }
}

Status Wal::Commit(WalRecordType type, const std::string& body) {
  SODA_RETURN_NOT_OK(poisoned_);
  // The probe runs before any byte is written: an injected fault or a
  // tripped guard (deadline hit during execution, external cancel) aborts
  // the commit with the log untouched. Transient failures (kUnavailable)
  // are retried with backoff before giving up.
  SODA_RETURN_NOT_OK(RetryTransient(DefaultIoRetryPolicy(), [&]() {
    return GuardProbe(QueryGuard::Current(), "wal.append");
  }));

  BinaryWriter payload;
  payload.U64(last_lsn_ + 1);
  payload.U8(static_cast<uint8_t>(type));
  payload.Bytes(body.data(), body.size());

  BinaryWriter frame;
  frame.U32(kWalMagic);
  frame.U32(Crc32(payload.buffer().data(), payload.buffer().size()));
  frame.U32(static_cast<uint32_t>(payload.buffer().size()));
  frame.Bytes(payload.buffer().data(), payload.buffer().size());

  const std::string& bytes = frame.buffer();
  const off_t start = static_cast<off_t>(file_size_);
  auto rollback = [&]() SODA_REQUIRES(mu_) {
    // Rollback runs on a path that already reports a primary error; a
    // failing rollback cannot change the outcome, only leave a torn tail
    // that the next Open() will repair — so it is logged, not returned.
    if (::ftruncate(fd_, start) != 0) {
      SODA_LOG(Warn) << "wal: rollback ftruncate failed for " << path_
                     << ": " << std::strerror(errno);
    }
    if (::lseek(fd_, start, SEEK_SET) < 0) {
      SODA_LOG(Warn) << "wal: rollback lseek failed for " << path_ << ": "
                     << std::strerror(errno);
    }
  };

  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t w = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (w < 0) {
      if (errno == EINTR) continue;
      rollback();
      return IoError("write", path_);
    }
    written += static_cast<size_t>(w);
  }
  file_size_ += bytes.size();

  bool want_sync = mode_ == WalFsyncMode::kOn;
  if (mode_ == WalFsyncMode::kGroup) {
    unsynced_bytes_ += bytes.size();
    want_sync = unsynced_bytes_ >= group_bytes_;
  }
  if (want_sync) {
    // Real fsync errors never retry (the page cache state is unknowable
    // after a failed fsync); only injected/transient kUnavailable does.
    int wal_fd = fd_;
    const std::string& wal_path = path_;
    Status synced = RetryTransient(DefaultIoRetryPolicy(), [&]() -> Status {
      SODA_RETURN_NOT_OK(GuardProbe(QueryGuard::Current(), "wal.fsync"));
      if (::fsync(wal_fd) != 0) return IoError("fsync", wal_path);
      return Status::OK();
    });
    if (!synced.ok()) {
      // The record never became durable: undo it so the failed statement
      // is invisible to recovery (all-or-nothing at the log level too).
      file_size_ = static_cast<uint64_t>(start);
      if (mode_ == WalFsyncMode::kGroup) {
        unsynced_bytes_ -= std::min<size_t>(unsynced_bytes_, bytes.size());
      }
      rollback();
      return synced;
    }
    unsynced_bytes_ = 0;
  }

  ++last_lsn_;
  ++record_count_;
  return Status::OK();
}

Status Wal::AppendDropTable(const std::string& table) {
  BinaryWriter body;
  body.Str(table);
  MutexLock lock(&mu_);
  return Commit(WalRecordType::kDropTable, body.buffer());
}

Status Wal::AppendTableWrite(const TableDelta& delta) {
  BinaryWriter body;
  WriteDelta(delta, &body);
  MutexLock lock(&mu_);
  return Commit(WalRecordType::kTableWrite, body.buffer());
}

Status Wal::Sync() {
  MutexLock lock(&mu_);
  SODA_RETURN_NOT_OK(poisoned_);
  if (::fsync(fd_) != 0) return IoError("fsync", path_);
  unsynced_bytes_ = 0;
  return Status::OK();
}

Status Wal::Truncate() {
  MutexLock lock(&mu_);
  SODA_RETURN_NOT_OK(poisoned_);
  if (::ftruncate(fd_, 0) != 0) return IoError("ftruncate", path_);
  if (::lseek(fd_, 0, SEEK_SET) < 0) return IoError("lseek", path_);
  file_size_ = 0;
  unsynced_bytes_ = 0;
  record_count_ = 0;
  if (::fsync(fd_) != 0) return IoError("fsync", path_);
  return Status::OK();
}

Status Wal::Rotate() {
  MutexLock lock(&mu_);
  SODA_RETURN_NOT_OK(poisoned_);
  SODA_RETURN_NOT_OK(RetryTransient(DefaultIoRetryPolicy(), [&]() {
    return GuardProbe(QueryGuard::Current(), "wal.rotate");
  }));
  // Drain pending group-commit bytes so the archive is self-consistent.
  if (unsynced_bytes_ > 0 && ::fsync(fd_) != 0) {
    return IoError("fsync", path_);
  }
  const std::string archive = path_ + kWalArchiveSuffix;
  if (::rename(path_.c_str(), archive.c_str()) != 0) {
    return IoError("rename", archive);
  }
  int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    Status open_err = IoError("open", path_);
    // Put the archive back so the live log stays usable; its own fd is
    // still valid either way (rename does not disturb open descriptors).
    if (::rename(archive.c_str(), path_.c_str()) != 0) {
      // The live path is gone and could not be restored: fd_ now points
      // at the archive, which recovery never reads. Accepting further
      // appends would acknowledge commits that vanish on restart, so the
      // log poisons itself instead.
      poisoned_ = Status::DataLoss(
          "wal: live log lost during rotation (" + open_err.message() +
          "; un-rotate rename also failed: " + std::strerror(errno) +
          ") — refusing further commits, restart required");
      SODA_LOG(Error) << poisoned_.message();
      return poisoned_;
    }
    return open_err;
  }
  ::close(fd_);
  fd_ = fd;
  file_size_ = 0;
  unsynced_bytes_ = 0;
  record_count_ = 0;
  // last_lsn_ is intentionally preserved: the LSN sequence spans
  // rotations, so checkpoint watermarks stay monotonic.
  return Status::OK();
}

}  // namespace soda
