#include "store/storage.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "support/contracts.hpp"

namespace syncon {

// ---------------------------------------------------------------------------
// SimStorage
// ---------------------------------------------------------------------------

namespace {

// splitmix64 — a tiny self-contained generator so the fault model does not
// depend on support/rng.hpp's engine choices.
std::uint64_t next_u64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double next_unit(std::uint64_t& state) {
  return static_cast<double>(next_u64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

SimStorage::SimStorage(SimFaultConfig faults)
    : faults_(faults), rng_state_(faults.seed ^ 0xC0FFEE5EED5ULL) {}

std::vector<std::string> SimStorage::list() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [name, obj] : objects_) names.push_back(name);
  return names;  // std::map iterates sorted
}

bool SimStorage::exists(const std::string& name) const {
  return objects_.count(name) != 0;
}

void SimStorage::maybe_crash(const char* op) {
  if (ops_until_crash_ == 0) return;
  if (--ops_until_crash_ == 0) {
    crash();
    throw StorageCrash(std::string("simulated crash during ") + op);
  }
}

void SimStorage::append(const std::string& name,
                        std::span<const std::uint8_t> bytes) {
  maybe_crash("append");
  Object& obj = objects_[name];
  obj.bytes.insert(obj.bytes.end(), bytes.begin(), bytes.end());
  ++appends_;
}

std::vector<std::uint8_t> SimStorage::read(const std::string& name) const {
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  return it->second.bytes;
}

std::size_t SimStorage::size(const std::string& name) const {
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  return it->second.bytes.size();
}

void SimStorage::sync(const std::string& name) {
  maybe_crash("sync");
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  it->second.synced = it->second.bytes.size();
  it->second.ever_synced = true;
  ++syncs_;
}

void SimStorage::remove(const std::string& name) {
  objects_.erase(name);
}

void SimStorage::crash() {
  ++crashes_;
  ops_until_crash_ = 0;
  for (auto it = objects_.begin(); it != objects_.end();) {
    Object& obj = it->second;
    if (!obj.ever_synced) {
      // Existence was never made durable: the object vanishes, even though
      // younger synced objects survive (reordered segment visibility).
      it = objects_.erase(it);
      continue;
    }
    if (obj.bytes.size() > obj.synced) {
      std::size_t keep = obj.synced;
      if (next_unit(rng_state_) < faults_.torn_tail) {
        // Torn tail: a random prefix of the unsynced suffix made it to the
        // medium, possibly with flipped bits — CRC framing must reject it.
        const std::size_t suffix = obj.bytes.size() - obj.synced;
        keep = obj.synced + next_u64(rng_state_) % (suffix + 1);
        for (std::size_t i = obj.synced; i < keep; ++i) {
          if (next_unit(rng_state_) < faults_.bit_flip) {
            obj.bytes[i] ^= static_cast<std::uint8_t>(
                1u << (next_u64(rng_state_) % 8));
          }
        }
      }
      obj.bytes.resize(keep);
      obj.synced = std::min(obj.synced, obj.bytes.size());
    }
    ++it;
  }
}

void SimStorage::crash_after_ops(std::uint64_t n) { ops_until_crash_ = n; }

void SimStorage::flip_bit(const std::string& name, std::size_t byte,
                          unsigned bit) {
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  SYNCON_REQUIRE(byte < it->second.bytes.size() && bit < 8,
                 "flip_bit target out of range");
  it->second.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

void SimStorage::truncate(const std::string& name, std::size_t new_size) {
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  SYNCON_REQUIRE(new_size <= it->second.bytes.size(),
                 "truncate cannot grow an object");
  it->second.bytes.resize(new_size);
  it->second.synced = std::min(it->second.synced, new_size);
}

std::size_t SimStorage::synced_size(const std::string& name) const {
  const auto it = objects_.find(name);
  SYNCON_REQUIRE(it != objects_.end(), "no stored object named " + name);
  return it->second.synced;
}

// ---------------------------------------------------------------------------
// FileStorage
// ---------------------------------------------------------------------------

FileStorage::FileStorage(std::string directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

FileStorage::~FileStorage() {
  for (auto& [name, handle] : handles_) {
    if (handle != nullptr) std::fclose(handle);
  }
}

std::string FileStorage::path_of(const std::string& name) const {
  SYNCON_REQUIRE(!name.empty() && name.find('/') == std::string::npos &&
                     name.find("..") == std::string::npos,
                 "storage object names must be plain file names");
  return directory_ + "/" + name;
}

void FileStorage::close_handle(const std::string& name) {
  const auto it = handles_.find(name);
  if (it != handles_.end()) {
    if (it->second != nullptr) std::fclose(it->second);
    handles_.erase(it);
  }
}

std::vector<std::string> FileStorage::list() const {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(directory_)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool FileStorage::exists(const std::string& name) const {
  return std::filesystem::exists(path_of(name));
}

void FileStorage::append(const std::string& name,
                         std::span<const std::uint8_t> bytes) {
  auto it = handles_.find(name);
  if (it == handles_.end()) {
    std::FILE* handle = std::fopen(path_of(name).c_str(), "ab");
    SYNCON_REQUIRE(handle != nullptr, "failed to open " + path_of(name));
    it = handles_.emplace(name, handle).first;
  }
  if (!bytes.empty()) {
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), it->second);
    SYNCON_REQUIRE(written == bytes.size(),
                   "short write to " + path_of(name));
  }
}

std::vector<std::uint8_t> FileStorage::read(const std::string& name) const {
  // Flush any buffered appends so the read sees the live view.
  const auto it = handles_.find(name);
  if (it != handles_.end() && it->second != nullptr) std::fflush(it->second);
  std::FILE* in = std::fopen(path_of(name).c_str(), "rb");
  SYNCON_REQUIRE(in != nullptr, "no stored object named " + name);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, in)) > 0) {
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  std::fclose(in);
  return bytes;
}

std::size_t FileStorage::size(const std::string& name) const {
  const auto it = handles_.find(name);
  if (it != handles_.end() && it->second != nullptr) std::fflush(it->second);
  SYNCON_REQUIRE(exists(name), "no stored object named " + name);
  return static_cast<std::size_t>(std::filesystem::file_size(path_of(name)));
}

void FileStorage::sync(const std::string& name) {
  const auto it = handles_.find(name);
  if (it != handles_.end() && it->second != nullptr) {
    std::fflush(it->second);
    ::fsync(fileno(it->second));
  }
}

void FileStorage::truncate(const std::string& name, std::size_t new_size) {
  close_handle(name);  // reopen lazily on the next append
  SYNCON_REQUIRE(exists(name), "no stored object named " + name);
  std::filesystem::resize_file(path_of(name), new_size);
}

void FileStorage::remove(const std::string& name) {
  close_handle(name);
  std::filesystem::remove(path_of(name));
}

}  // namespace syncon
