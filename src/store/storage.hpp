// Byte-level storage behind the durability layer (DESIGN.md §3.12).
//
// The Store (store/store.hpp) never touches a filesystem directly: it talks
// to a StorageBackend — named append-only objects ("segments") with an
// explicit durability point. The contract mirrors POSIX semantics without
// inheriting POSIX surprises:
//
//   append(name, bytes)   appends to the object, creating it if absent. The
//                         bytes are *volatile* until the next sync(name) —
//                         a crash may lose any suffix of them, tear the
//                         last partial write, or flip bits in the torn
//                         region.
//   sync(name)            durability barrier: everything appended so far —
//                         and the object's existence itself — survives any
//                         later crash. (An unsynced object can vanish
//                         entirely while a younger synced one survives:
//                         that is the "reordered segment visibility"
//                         anomaly recovery must tolerate.)
//
// Two implementations:
//   SimStorage   deterministic in-memory fault injector: crash() applies
//                seeded torn tails / bit flips / lost unsynced suffixes, so
//                recovery is tested byte-for-byte reproducibly.
//   FileStorage  a directory of real files for the CLI tooling
//                (tools/trace_analysis --wal-record / --wal-replay).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace syncon {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Names of all existing objects, lexicographically sorted (segment names
  /// embed zero-padded sequence numbers, so this is also creation order).
  virtual std::vector<std::string> list() const = 0;
  virtual bool exists(const std::string& name) const = 0;
  /// Appends bytes, creating the object if needed. Volatile until sync().
  virtual void append(const std::string& name,
                      std::span<const std::uint8_t> bytes) = 0;
  /// Full contents (durable + not-yet-synced bytes — the live view).
  virtual std::vector<std::uint8_t> read(const std::string& name) const = 0;
  virtual std::size_t size(const std::string& name) const = 0;
  /// Durability barrier for the object and its existence.
  virtual void sync(const std::string& name) = 0;
  /// Discards every byte past `new_size` — recovery's truncation primitive
  /// for cutting a torn tail at the last valid frame boundary.
  virtual void truncate(const std::string& name, std::size_t new_size) = 0;
  virtual void remove(const std::string& name) = 0;
};

/// Thrown by SimStorage when an armed crash point fires: the storage has
/// already transitioned to its post-crash contents; the caller abandons the
/// in-memory system and runs recovery, exactly like a process restart.
class StorageCrash : public std::runtime_error {
 public:
  explicit StorageCrash(const std::string& what) : std::runtime_error(what) {}
};

/// Seeded fault model applied to the *unsynced* suffix at crash():
/// synced bytes are sacred (that is what sync means), everything after the
/// last barrier is fair game.
struct SimFaultConfig {
  /// Probability that a crash leaves a torn tail — a random prefix of the
  /// unsynced suffix survives — instead of dropping the suffix cleanly.
  double torn_tail = 0.0;
  /// Per-byte probability that a surviving torn byte has one bit flipped.
  double bit_flip = 0.0;
  std::uint64_t seed = 0;
};

class SimStorage : public StorageBackend {
 public:
  explicit SimStorage(SimFaultConfig faults = {});

  std::vector<std::string> list() const override;
  bool exists(const std::string& name) const override;
  void append(const std::string& name,
              std::span<const std::uint8_t> bytes) override;
  std::vector<std::uint8_t> read(const std::string& name) const override;
  std::size_t size(const std::string& name) const override;
  void sync(const std::string& name) override;
  void truncate(const std::string& name, std::size_t new_size) override;
  void remove(const std::string& name) override;

  /// Simulated process/machine crash: every object keeps its synced bytes;
  /// the unsynced suffix is lost, torn, or bit-flipped per SimFaultConfig;
  /// objects never synced vanish entirely.
  void crash();

  /// Arms a deterministic crash point: after `n` more mutating operations
  /// (append or sync), the operation does NOT take effect, crash() runs,
  /// and StorageCrash is thrown. n = 0 disarms.
  void crash_after_ops(std::uint64_t n);

  /// Targeted corruption helper for CRC tests (bypasses the crash model).
  void flip_bit(const std::string& name, std::size_t byte, unsigned bit);

  std::size_t synced_size(const std::string& name) const;
  std::uint64_t appends() const { return appends_; }
  std::uint64_t syncs() const { return syncs_; }
  std::uint64_t crashes() const { return crashes_; }

 private:
  struct Object {
    std::vector<std::uint8_t> bytes;
    std::size_t synced = 0;      // prefix length covered by the last sync
    bool ever_synced = false;    // existence is durable only after a sync
  };

  void maybe_crash(const char* op);

  std::map<std::string, Object> objects_;
  SimFaultConfig faults_;
  std::uint64_t rng_state_;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t ops_until_crash_ = 0;  // 0 = disarmed
};

/// Directory-backed storage for the CLI tooling. Keeps one open handle per
/// object so append/sync map to fwrite/fflush+fsync.
class FileStorage : public StorageBackend {
 public:
  /// Creates the directory if it does not exist.
  explicit FileStorage(std::string directory);
  ~FileStorage() override;

  std::vector<std::string> list() const override;
  bool exists(const std::string& name) const override;
  void append(const std::string& name,
              std::span<const std::uint8_t> bytes) override;
  std::vector<std::uint8_t> read(const std::string& name) const override;
  std::size_t size(const std::string& name) const override;
  void sync(const std::string& name) override;
  void truncate(const std::string& name, std::size_t new_size) override;
  void remove(const std::string& name) override;

  const std::string& directory() const { return directory_; }

 private:
  std::string path_of(const std::string& name) const;
  void close_handle(const std::string& name);

  std::string directory_;
  std::map<std::string, std::FILE*> handles_;
};

}  // namespace syncon
