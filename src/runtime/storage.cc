#include "runtime/storage.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/bytes.h"

namespace carousel::runtime {
namespace {

// WAL record framing: [u32 body_len][u32 crc32(body)][body]. A record is
// valid only if the full body is present and the CRC matches; the first
// invalid record marks the torn tail and everything from there is
// discarded. Body[0] is the record kind.
constexpr uint8_t kRecHardState = 1;
constexpr uint8_t kRecCommitIndex = 2;
constexpr uint8_t kRecLogEntry = 3;
constexpr uint8_t kRecPendingAdd = 4;
constexpr uint8_t kRecPendingErase = 5;

constexpr uint32_t kSnapshotMagic = 0x6e535743;  // "CWSn"
constexpr uint32_t kSnapshotVersion = 1;

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (~(c & 1) + 1));
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

/// A storage error stops the node: carrying on would let it acknowledge
/// votes, log entries and prepare pins it never persisted.
[[noreturn]] void DieOnStorageError(const char* op, const std::string& path) {
  const int err = errno;
  std::fprintf(stderr, "WalStorage: %s %s failed: %s\n", op, path.c_str(),
               std::strerror(err));
  std::abort();
}

int OpenOrDie(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) DieOnStorageError("open", path);
  return fd;
}

void WriteAllOrDie(int fd, const uint8_t* data, size_t len,
                   const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      DieOnStorageError("write", path);
    }
    data += static_cast<size_t>(n);
    len -= static_cast<size_t>(n);
  }
}

void FsyncOrDie(int fd, const std::string& path) {
  if (::fsync(fd) != 0) DieOnStorageError("fsync", path);
}

/// Reads all of `path`; false only when it does not exist.
bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return false;
    DieOnStorageError("open", path);
  }
  out->clear();
  uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      DieOnStorageError("read", path);
    }
    if (n == 0) break;
    out->insert(out->end(), buf, buf + n);
  }
  ::close(fd);
  return true;
}

void MkDirs(const std::string& path) {
  std::string prefix;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty() && prefix != "/") ::mkdir(prefix.c_str(), 0755);
    }
    if (i < path.size()) prefix.push_back(path[i]);
  }
}

void FsyncDir(const std::string& dir) {
  const int fd = OpenOrDie(dir, O_RDONLY | O_DIRECTORY);
  FsyncOrDie(fd, dir);
  ::close(fd);
}

/// A WAL record under construction: room for the header AppendRecord
/// fills in, then the body, which starts with the record kind.
std::vector<uint8_t> NewRecord(uint8_t kind) {
  return {0, 0, 0, 0, 0, 0, 0, 0, kind};
}

}  // namespace

WalStorage::WalStorage(std::string dir, WireCodec codec,
                       WalStorageOptions options)
    : dir_(std::move(dir)),
      wal_path_(dir_ + "/wal.log"),
      codec_(std::move(codec)),
      options_(options) {
  MkDirs(dir_);
  LoadFromDisk();
  wal_fd_ = OpenOrDie(wal_path_, O_WRONLY | O_CREAT | O_APPEND);
}

WalStorage::~WalStorage() { ::close(wal_fd_); }

void WalStorage::AppendRecord(std::vector<uint8_t>& rec) {
  const size_t body_len = rec.size() - 8;
  StoreU32(rec.data(), static_cast<uint32_t>(body_len));
  StoreU32(rec.data() + 4, Crc32(rec.data() + 8, body_len));
  WriteAllOrDie(wal_fd_, rec.data(), rec.size(), wal_path_);
  wal_bytes_ += rec.size();
  if (options_.fsync) FsyncOrDie(wal_fd_, wal_path_);
  MaybeAutoCompact();
}

void WalStorage::PersistHardState(uint64_t term, NodeId voted_for) {
  state_.term = term;
  state_.voted_for = voted_for;
  std::vector<uint8_t> rec = NewRecord(kRecHardState);
  ByteWriter w(&rec);
  w.U64(term);
  w.U32(static_cast<uint32_t>(voted_for));
  AppendRecord(rec);
}

void WalStorage::PersistCommitIndex(uint64_t commit_index) {
  state_.commit_index = commit_index;
  std::vector<uint8_t> rec = NewRecord(kRecCommitIndex);
  ByteWriter(&rec).U64(commit_index);
  AppendRecord(rec);
}

void WalStorage::PersistLogEntry(uint64_t index, uint64_t term,
                                 const MessagePtr& payload) {
  DurableNodeState::LogEntry entry;
  entry.term = term;
  entry.payload = payload;
  entry.payload_type = payload == nullptr ? -1 : payload->type();
  std::vector<uint8_t> rec = NewRecord(kRecLogEntry);
  ByteWriter w(&rec);
  w.U64(index);
  w.U64(term);
  w.U32(static_cast<uint32_t>(entry.payload_type));
  if (payload != nullptr) codec_.encode(*payload, &rec);
  // Implicit suffix truncation: appending at `index` invalidates anything
  // previously persisted at or beyond it, exactly like the in-memory
  // log_.resize() in Raft's conflict handling.
  if (index >= 1 && index <= state_.log.size()) {
    state_.log.resize(index - 1);
  }
  if (index == state_.log.size() + 1) {
    state_.log.push_back(std::move(entry));
  }
  if (state_.commit_index > state_.log.size()) {
    state_.commit_index = state_.log.size();
  }
  AppendRecord(rec);
}

void WalStorage::PersistPendingAdd(const std::string& key,
                                   std::vector<uint8_t> blob) {
  std::vector<uint8_t> rec = NewRecord(kRecPendingAdd);
  ByteWriter w(&rec);
  w.U32(static_cast<uint32_t>(key.size()));
  w.Bytes(key);
  w.Bytes(blob.data(), blob.size());
  state_.pending[key] = std::move(blob);
  AppendRecord(rec);
}

void WalStorage::PersistPendingErase(const std::string& key) {
  if (state_.pending.erase(key) == 0) return;  // Nothing durable to undo.
  std::vector<uint8_t> rec = NewRecord(kRecPendingErase);
  ByteWriter w(&rec);
  w.U32(static_cast<uint32_t>(key.size()));
  w.Bytes(key);
  AppendRecord(rec);
}

bool WalStorage::Load(DurableNodeState* out) {
  *out = state_;
  return recovered_any_;
}

void WalStorage::LoadFromDisk() {
  state_ = DurableNodeState{};
  const bool had_snapshot = LoadSnapshot();
  ReplayWal();
  if (state_.commit_index > state_.log.size()) {
    state_.commit_index = state_.log.size();
  }
  recovered_any_ = had_snapshot || !state_.empty();
}

bool WalStorage::LoadSnapshot() {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(dir_ + "/snapshot.bin", &bytes)) return false;
  ByteReader header(bytes.data(), bytes.size());
  if (header.U32() != kSnapshotMagic || header.U32() != kSnapshotVersion) {
    return false;
  }
  const uint32_t body_len = header.U32();
  const uint32_t crc = header.U32();
  const uint8_t* body = header.Take(body_len);
  if (body == nullptr || Crc32(body, body_len) != crc) return false;

  ByteReader r(body, body_len);
  state_.term = r.U64();
  state_.voted_for = static_cast<NodeId>(r.U32());
  state_.commit_index = r.U64();
  const uint64_t nlog = r.U64();
  for (uint64_t i = 0; i < nlog && r.ok(); ++i) {
    DurableNodeState::LogEntry entry;
    entry.term = r.U64();
    entry.payload_type = static_cast<int32_t>(r.U32());
    const uint32_t plen = r.U32();
    const uint8_t* payload = r.Take(plen);
    if (!r.ok()) break;
    if (entry.payload_type >= 0) {
      entry.payload = codec_.decode(entry.payload_type, payload, plen);
    }
    state_.log.push_back(std::move(entry));
  }
  const uint64_t npending = r.U64();
  for (uint64_t i = 0; i < npending && r.ok(); ++i) {
    const std::string key = r.Str(r.U32());
    std::vector<uint8_t> blob = r.Bytes(r.U32());
    if (!r.ok()) break;
    state_.pending[key] = std::move(blob);
  }
  if (!r.ok()) {
    // A snapshot is written atomically (tmp + rename), so a parse failure
    // means external corruption; start over rather than trust half of it.
    state_ = DurableNodeState{};
    return false;
  }
  return true;
}

void WalStorage::ReplayWal() {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(wal_path_, &bytes)) return;
  size_t pos = 0;
  while (pos + 8 <= bytes.size()) {
    ByteReader header(bytes.data() + pos, 8);
    const uint32_t body_len = header.U32();
    const uint32_t crc = header.U32();
    if (pos + 8 + body_len > bytes.size() || body_len == 0) break;  // Torn.
    const uint8_t* body = bytes.data() + pos + 8;
    if (Crc32(body, body_len) != crc) break;  // Torn / corrupt tail.

    ByteReader r(body, body_len);
    switch (r.U8()) {
      case kRecHardState: {
        state_.term = r.U64();
        state_.voted_for = static_cast<NodeId>(r.U32());
        break;
      }
      case kRecCommitIndex: {
        state_.commit_index = r.U64();
        break;
      }
      case kRecLogEntry: {
        const uint64_t index = r.U64();
        DurableNodeState::LogEntry entry;
        entry.term = r.U64();
        entry.payload_type = static_cast<int32_t>(r.U32());
        const size_t plen = r.remaining();
        const uint8_t* payload = r.Take(plen);
        if (!r.ok()) break;
        if (entry.payload_type >= 0) {
          entry.payload = codec_.decode(entry.payload_type, payload, plen);
        }
        if (index >= 1 && index <= state_.log.size()) {
          state_.log.resize(index - 1);
        }
        if (index == state_.log.size() + 1) {
          state_.log.push_back(std::move(entry));
        }
        break;
      }
      case kRecPendingAdd: {
        const std::string key = r.Str(r.U32());
        std::vector<uint8_t> blob = r.Bytes(r.remaining());
        if (r.ok()) state_.pending[key] = std::move(blob);
        break;
      }
      case kRecPendingErase: {
        const std::string key = r.Str(r.U32());
        if (r.ok()) state_.pending.erase(key);
        break;
      }
      default:
        break;  // Unknown kind from a future version: skip the record.
    }
    pos += 8 + body_len;
  }
  wal_bytes_ = pos;
  if (pos < bytes.size()) {
    // Torn tail: drop the partial/corrupt suffix so the next append starts
    // on a clean record boundary.
    torn_records_++;
    if (::truncate(wal_path_.c_str(), static_cast<off_t>(pos)) != 0) {
      DieOnStorageError("truncate", wal_path_);
    }
  }
}

void WalStorage::Compact() {
  // [u32 magic][u32 version][u32 body_len][u32 crc32(body)][body]
  std::vector<uint8_t> file(16, 0);
  ByteWriter w(&file);
  w.U64(state_.term);
  w.U32(static_cast<uint32_t>(state_.voted_for));
  w.U64(state_.commit_index);
  w.U64(state_.log.size());
  for (const DurableNodeState::LogEntry& entry : state_.log) {
    w.U64(entry.term);
    w.U32(static_cast<uint32_t>(entry.payload_type));
    const size_t len_at = file.size();
    w.U32(0);
    if (entry.payload != nullptr) codec_.encode(*entry.payload, &file);
    StoreU32(file.data() + len_at,
             static_cast<uint32_t>(file.size() - len_at - 4));
  }
  w.U64(state_.pending.size());
  for (const auto& [key, blob] : state_.pending) {
    w.U32(static_cast<uint32_t>(key.size()));
    w.Bytes(key);
    w.U32(static_cast<uint32_t>(blob.size()));
    w.Bytes(blob.data(), blob.size());
  }
  const size_t body_len = file.size() - 16;
  StoreU32(file.data(), kSnapshotMagic);
  StoreU32(file.data() + 4, kSnapshotVersion);
  StoreU32(file.data() + 8, static_cast<uint32_t>(body_len));
  StoreU32(file.data() + 12, Crc32(file.data() + 16, body_len));

  const std::string tmp = dir_ + "/snapshot.tmp";
  const int fd = OpenOrDie(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  WriteAllOrDie(fd, file.data(), file.size(), tmp);
  if (options_.fsync) FsyncOrDie(fd, tmp);
  ::close(fd);
  if (::rename(tmp.c_str(), (dir_ + "/snapshot.bin").c_str()) != 0) {
    DieOnStorageError("rename", tmp);
  }
  if (options_.fsync) FsyncDir(dir_);

  // The snapshot now carries everything; restart the WAL from empty.
  ::close(wal_fd_);
  wal_fd_ = OpenOrDie(wal_path_, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND);
  wal_bytes_ = 0;
}

void WalStorage::MaybeAutoCompact() {
  if (options_.compact_threshold_bytes == 0) return;
  if (wal_bytes_ < options_.compact_threshold_bytes) return;
  Compact();
}

}  // namespace carousel::runtime
