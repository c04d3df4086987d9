#include "wal/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/fs_util.h"
#include "obs/trace.h"

namespace assess {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[8] = {'A', 'S', 'S', 'E', 'S', 'S', 'W', '1'};
constexpr size_t kSegmentHeaderBytes = 16;  // magic + first_lsn
constexpr size_t kFrameHeaderBytes = 8;     // payload_len + crc32c

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* out) {
    if (pos_ + 2 > data_.size()) return false;
    *out = static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_])) |
           static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + 1])) << 8;
    pos_ += 2;
    return true;
  }
  bool GetU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }
  bool GetU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }
  bool GetBytes(size_t len, std::string* out) {
    if (pos_ + len > data_.size()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

std::string SegmentName(uint64_t first_lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.log",
                static_cast<unsigned long long>(first_lsn));
  return buf;
}

/// Parses `wal-<20 digits>.log`; false for unrelated files.
bool ParseSegmentName(const std::string& name, uint64_t* first_lsn) {
  if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
      name.compare(24, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *first_lsn = v;
  return true;
}

uint32_t ReadU32At(const std::string& data, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
  }
  return v;
}

uint64_t ReadU64At(const std::string& data, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string_view FsyncModeToString(FsyncMode mode) {
  switch (mode) {
    case FsyncMode::kNone:
      return "none";
    case FsyncMode::kAlways:
      return "batch";
    case FsyncMode::kGroup:
      return "group";
  }
  return "unknown";
}

Result<FsyncMode> ParseFsyncMode(std::string_view text) {
  if (text == "none") return FsyncMode::kNone;
  if (text == "batch") return FsyncMode::kAlways;
  if (text == "group") return FsyncMode::kGroup;
  return Status::InvalidArgument("unknown fsync mode '" + std::string(text) +
                                 "' (expected none, batch or group)");
}

std::string EncodeWalPayload(const WalRecordData& rec) {
  std::string out;
  out.reserve(40 + rec.cube.size() + rec.header.size() + rec.text.size());
  PutU64(&out, rec.lsn);
  out.push_back(static_cast<char>(rec.kind));
  PutU64(&out, rec.epoch);
  out.push_back(static_cast<char>(rec.format));
  out.push_back(static_cast<char>(rec.flags));
  PutU16(&out, static_cast<uint16_t>(rec.cube.size()));
  out.append(rec.cube);
  PutU32(&out, rec.row_count);
  PutU32(&out, static_cast<uint32_t>(rec.header.size()));
  out.append(rec.header);
  PutU32(&out, static_cast<uint32_t>(rec.text.size()));
  out.append(rec.text);
  return out;
}

Result<WalRecordData> DecodeWalPayload(std::string_view payload) {
  PayloadReader reader(payload);
  WalRecordData rec;
  uint8_t kind = 0, format = 0;
  uint16_t cube_len = 0;
  uint32_t header_len = 0, text_len = 0;
  if (!reader.GetU64(&rec.lsn) || !reader.GetU8(&kind) ||
      !reader.GetU64(&rec.epoch) || !reader.GetU8(&format) ||
      !reader.GetU8(&rec.flags) || !reader.GetU16(&cube_len) ||
      !reader.GetBytes(cube_len, &rec.cube) ||
      !reader.GetU32(&rec.row_count) || !reader.GetU32(&header_len) ||
      !reader.GetBytes(header_len, &rec.header) ||
      !reader.GetU32(&text_len) || !reader.GetBytes(text_len, &rec.text)) {
    return Status::CorruptWal("WAL record payload is truncated");
  }
  if (!reader.AtEnd()) {
    return Status::CorruptWal("WAL record payload has trailing bytes");
  }
  if (kind != static_cast<uint8_t>(WalRecordKind::kIngestBatch)) {
    return Status::CorruptWal("WAL record has unknown kind " +
                              std::to_string(kind));
  }
  if (format != static_cast<uint8_t>(IngestFormat::kCsv) &&
      format != static_cast<uint8_t>(IngestFormat::kJsonl)) {
    return Status::CorruptWal("WAL record has unknown ingest format " +
                              std::to_string(format));
  }
  rec.kind = static_cast<WalRecordKind>(kind);
  rec.format = static_cast<IngestFormat>(format);
  return rec;
}

// ---------------------------------------------------------------------------
// WriteAheadLog
// ---------------------------------------------------------------------------

WriteAheadLog::WriteAheadLog(std::string dir, WalOptions options,
                             uint64_t next_lsn)
    : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {
  written_seq_ = durable_seq_ = next_lsn_ - 1;
}

WriteAheadLog::~WriteAheadLog() {
  std::unique_lock<std::mutex> lock(mu_);
  sync_cv_.wait(lock, [this] { return !sync_in_flight_; });
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string wal_dir, WalOptions options, uint64_t next_lsn) {
  if (next_lsn == 0) {
    return Status::InvalidArgument("WAL LSNs start at 1");
  }
  std::error_code ec;
  fs::create_directories(wal_dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL directory '" + wal_dir +
                            "': " + ec.message());
  }
  std::unique_ptr<WriteAheadLog> wal(
      new WriteAheadLog(std::move(wal_dir), options, next_lsn));
  {
    std::unique_lock<std::mutex> lock(wal->mu_);
    ASSESS_RETURN_NOT_OK(wal->OpenSegmentLocked());
  }
  // The new (empty) segment's directory entry must itself be durable:
  // otherwise a crash right after a durable append could lose the whole
  // file, not just a tail.
  ASSESS_RETURN_NOT_OK(FsyncPath(wal->dir_));
  return wal;
}

Status WriteAheadLog::OpenSegmentLocked() {
  segment_path_ =
      (fs::path(dir_) / SegmentName(next_lsn_)).string();
  int fd;
  do {
    fd = ::open(segment_path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::Internal("cannot create WAL segment '" + segment_path_ +
                            "': " + std::strerror(errno));
  }
  std::string header(kSegmentMagic, sizeof(kSegmentMagic));
  PutU64(&header, next_lsn_);
  ssize_t n = ::write(fd, header.data(), header.size());
  if (n != static_cast<ssize_t>(header.size())) {
    ::close(fd);
    return Status::Internal("cannot write WAL segment header to '" +
                            segment_path_ + "'");
  }
  fd_ = fd;
  segment_offset_ = static_cast<int64_t>(header.size());
  return Status::OK();
}

Status WriteAheadLog::WriteFrameLocked(const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32c(payload.data(), payload.size()));
  frame.append(payload);

  const int64_t base = segment_offset_;
  size_t written = 0;
  while (written < frame.size()) {
    ssize_t n =
        ::write(fd_, frame.data() + written, frame.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Roll the partial frame back so the file, if it survives, has no
      // half-written record; then poison the log (see header).
      ::ftruncate(fd_, base);
      return Status::Internal(std::string("WAL write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  segment_offset_ = base + static_cast<int64_t>(frame.size());
  bytes_written_ += frame.size();
  return Status::OK();
}

Result<uint64_t> WriteAheadLog::Append(const WalRecordData& rec) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  // Chaos site: fails the append *before* any byte reaches the file — the
  // caller's batch is simply not durable (and must not publish), but the
  // log itself stays healthy for the next committer.
  ASSESS_FAILPOINT("wal.append");

  WalRecordData stamped = rec;
  stamped.lsn = next_lsn_;
  const std::string payload = EncodeWalPayload(stamped);
  Status wrote = WriteFrameLocked(payload);
  if (!wrote.ok()) {
    poisoned_ = Status::Unavailable(
        "WAL poisoned by a failed write (" + wrote.message() +
        "); restart to recover");
    sync_cv_.notify_all();
    return wrote;
  }
  const uint64_t lsn = next_lsn_++;
  written_seq_ = lsn;
  appends_ += 1;

  switch (options_.fsync_mode) {
    case FsyncMode::kNone:
      // Never durable by policy; pretend it is so Sync() stays a no-op.
      durable_seq_ = lsn;
      return lsn;
    case FsyncMode::kAlways: {
      // One fsync per commit, serialized under the lock on purpose: this is
      // the honest no-coalescing baseline the group-commit bench compares
      // against.
      ASSESS_RETURN_NOT_OK(SyncLocked(&lock));
      return lsn;
    }
    case FsyncMode::kGroup:
      break;
  }

  // Group commit: whoever finds no sync in flight becomes the leader and
  // fsyncs everything written so far (possibly covering many followers'
  // records); everyone else waits for durable_seq_ to reach their LSN.
  while (durable_seq_ < lsn) {
    if (!poisoned_.ok()) return poisoned_;
    if (!sync_in_flight_) {
      ASSESS_RETURN_NOT_OK(SyncLocked(&lock));
    } else {
      sync_cv_.wait(lock);
    }
  }
  // Sticky leader: records appended while the last fsync ran are sitting
  // undurable with no sync in flight. Starting the next round from here —
  // already holding the lock — keeps the disk busy; otherwise it idles
  // until a woken follower gets scheduled and elects itself. One round
  // only, so no appender is delayed unboundedly; a failure poisons the
  // log for the waiters it concerns, while this record is already durable.
  if (!sync_in_flight_ && durable_seq_ < written_seq_ && poisoned_.ok()) {
    (void)SyncLocked(&lock);
  }
  return lsn;
}

Status WriteAheadLog::SyncLocked(std::unique_lock<std::mutex>* lock) {
  const uint64_t target = written_seq_;
  if (durable_seq_ >= target) return Status::OK();
  sync_in_flight_ = true;
  const int fd = fd_;
  lock->unlock();

  Status synced = [&]() -> Status {
    // Chaos site: a failed fsync means bytes of unknown durability — the
    // log is poisoned below and every later append refused.
    ASSESS_FAILPOINT("wal.fsync");
    Span span("wal.fsync");
    Status st = FsyncFd(fd, "WAL segment");
    span.AddInt("through_lsn", static_cast<int64_t>(target));
    return st;
  }();

  lock->lock();
  sync_in_flight_ = false;
  if (synced.ok()) {
    durable_seq_ = std::max(durable_seq_, target);
    fsyncs_ += 1;
  } else {
    poisoned_ = Status::Unavailable("WAL poisoned by a failed fsync (" +
                                    synced.message() +
                                    "); restart to recover");
  }
  sync_cv_.notify_all();
  return synced;
}

Status WriteAheadLog::Sync() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  if (options_.fsync_mode == FsyncMode::kNone) return Status::OK();
  while (durable_seq_ < written_seq_) {
    if (!poisoned_.ok()) return poisoned_;
    if (!sync_in_flight_) {
      ASSESS_RETURN_NOT_OK(SyncLocked(&lock));
    } else {
      sync_cv_.wait(lock);
    }
  }
  return Status::OK();
}

Status WriteAheadLog::StartNewSegment() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!poisoned_.ok()) return poisoned_;
  sync_cv_.wait(lock, [this] { return !sync_in_flight_; });
  // Seal: everything in the old segment durable before the switch, so
  // deleting it after a later checkpoint can never lose a record.
  if (options_.fsync_mode != FsyncMode::kNone &&
      durable_seq_ < written_seq_) {
    ASSESS_RETURN_NOT_OK(SyncLocked(&lock));
  }
  ::close(fd_);
  fd_ = -1;
  ASSESS_RETURN_NOT_OK(OpenSegmentLocked());
  lock.unlock();
  return FsyncPath(dir_);
}

Status WriteAheadLog::DeleteSegmentsBelow(uint64_t lsn_exclusive) {
  std::string active;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active = segment_path_;
  }
  // A segment is deletable when the *next* segment starts at or below
  // lsn_exclusive (then every record in it has LSN < lsn_exclusive).
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t first = 0;
    const std::string name = entry.path().filename().string();
    if (ParseSegmentName(name, &first)) {
      segments.emplace_back(first, entry.path().string());
    }
  }
  if (ec) {
    return Status::Internal("cannot list WAL directory '" + dir_ +
                            "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end());
  bool removed = false;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i].second == active) continue;
    if (segments[i + 1].first <= lsn_exclusive) {
      std::error_code rm;
      fs::remove(segments[i].second, rm);
      removed = true;
    }
  }
  if (removed) return FsyncPath(dir_);
  return Status::OK();
}

uint64_t WriteAheadLog::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

uint64_t WriteAheadLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats stats;
  stats.appends = appends_;
  stats.fsyncs = fsyncs_;
  stats.bytes_written = bytes_written_;
  return stats;
}

// ---------------------------------------------------------------------------
// ScanWal
// ---------------------------------------------------------------------------

namespace {

/// Truncates `path` to `keep` bytes (torn-tail repair).
Status TruncateSegment(const std::string& path, int64_t keep) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::Internal("cannot open '" + path +
                            "' for truncation: " + std::strerror(errno));
  }
  int rc = ::ftruncate(fd, keep);
  Status st = rc == 0 ? FsyncFd(fd, path)
                      : Status::Internal("cannot truncate '" + path +
                                         "': " + std::strerror(errno));
  ::close(fd);
  return st;
}

}  // namespace

Status ScanWal(const std::string& wal_dir, uint64_t after_lsn, bool repair,
               const std::function<Status(const WalRecordData&)>& fn,
               WalScanReport* report) {
  *report = WalScanReport{};
  std::error_code ec;
  if (!fs::exists(wal_dir, ec)) return Status::OK();

  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const auto& entry : fs::directory_iterator(wal_dir, ec)) {
    uint64_t first = 0;
    const std::string name = entry.path().filename().string();
    if (ParseSegmentName(name, &first)) {
      segments.emplace_back(first, entry.path().string());
    }
  }
  if (ec) {
    return Status::Internal("cannot list WAL directory '" + wal_dir +
                            "': " + ec.message());
  }
  std::sort(segments.begin(), segments.end());

  uint64_t expected_lsn = 0;  // 0 = not yet established
  for (size_t s = 0; s < segments.size(); ++s) {
    const bool last_segment = s + 1 == segments.size();
    const std::string& path = segments[s].second;
    std::string data;
    ASSESS_RETURN_NOT_OK(ReadFileToString(path, &data));

    auto torn_tail = [&](size_t valid_end, const std::string& why) -> Status {
      if (!last_segment) {
        return Status::CorruptWal("WAL segment '" + path + "': " + why +
                                  " in a non-final segment");
      }
      report->tail_truncated = true;
      report->truncated_bytes = data.size() - valid_end;
      report->tail_note = "torn WAL tail in '" + path + "': " + why + "; " +
                          std::to_string(report->truncated_bytes) +
                          " trailing bytes dropped";
      if (repair) {
        ASSESS_RETURN_NOT_OK(
            TruncateSegment(path, static_cast<int64_t>(valid_end)));
      }
      return Status::OK();
    };

    // Segment header. A header torn mid-write can only happen to the
    // newest segment (older ones were sealed with an fsync).
    if (data.size() < kSegmentHeaderBytes ||
        std::memcmp(data.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
      if (data.size() < kSegmentHeaderBytes) {
        ASSESS_RETURN_NOT_OK(torn_tail(0, "incomplete segment header"));
        if (repair) {
          std::error_code rm;
          fs::remove(path, rm);  // a headerless segment holds nothing
        }
        break;
      }
      return Status::CorruptWal("WAL segment '" + path +
                                "' has a bad magic header");
    }
    const uint64_t first_lsn = ReadU64At(data, sizeof(kSegmentMagic));
    if (first_lsn != segments[s].first) {
      return Status::CorruptWal("WAL segment '" + path +
                                "' header LSN does not match its file name");
    }
    if (expected_lsn != 0 && first_lsn != expected_lsn) {
      return Status::CorruptWal(
          "WAL is missing records: segment '" + path + "' starts at LSN " +
          std::to_string(first_lsn) + " but LSN " +
          std::to_string(expected_lsn) + " was expected");
    }
    if (expected_lsn == 0 && first_lsn > after_lsn + 1) {
      return Status::CorruptWal(
          "WAL is missing records: the oldest segment starts at LSN " +
          std::to_string(first_lsn) + " but the checkpoint covers only up "
          "to LSN " + std::to_string(after_lsn));
    }
    expected_lsn = first_lsn;

    size_t pos = kSegmentHeaderBytes;
    bool stop = false;
    while (pos < data.size()) {
      if (pos + kFrameHeaderBytes > data.size()) {
        ASSESS_RETURN_NOT_OK(torn_tail(pos, "incomplete record frame"));
        stop = true;
        break;
      }
      const uint32_t len = ReadU32At(data, pos);
      const uint32_t crc = ReadU32At(data, pos + 4);
      if (pos + kFrameHeaderBytes + len > data.size()) {
        ASSESS_RETURN_NOT_OK(
            torn_tail(pos, "record runs past end of file"));
        stop = true;
        break;
      }
      const char* payload = data.data() + pos + kFrameHeaderBytes;
      if (Crc32c(payload, len) != crc) {
        const bool at_eof = pos + kFrameHeaderBytes + len == data.size();
        if (at_eof) {
          // The final record's sectors may land out of order; a CRC failure
          // with nothing after it is indistinguishable from a torn write.
          ASSESS_RETURN_NOT_OK(
              torn_tail(pos, "final record failed its CRC32C check"));
          stop = true;
          break;
        }
        return Status::CorruptWal(
            "WAL segment '" + path + "': record at offset " +
            std::to_string(pos) +
            " failed its CRC32C check with valid data following it");
      }
      ASSESS_ASSIGN_OR_RETURN(
          WalRecordData rec,
          DecodeWalPayload(std::string_view(payload, len)));
      if (rec.lsn != expected_lsn) {
        return Status::CorruptWal(
            "WAL segment '" + path + "': record at offset " +
            std::to_string(pos) + " carries LSN " + std::to_string(rec.lsn) +
            " where " + std::to_string(expected_lsn) + " was expected");
      }
      report->records += 1;
      report->last_lsn = rec.lsn;
      if (rec.lsn > after_lsn && fn != nullptr) {
        ASSESS_RETURN_NOT_OK(fn(rec));
        report->replayed += 1;
      }
      expected_lsn += 1;
      pos += kFrameHeaderBytes + len;
    }
    if (stop) break;
  }
  return Status::OK();
}

}  // namespace assess
