// A small set-associative LRU cache model (tags only) used for the per-SM
// read-only data cache that Kepler introduced (Section II-B of the paper).
#pragma once

#include <cstdint>
#include <vector>

namespace safara::vgpu {

class CacheModel {
 public:
  CacheModel(int size_bytes, int line_bytes, int ways)
      : line_bytes_(line_bytes),
        ways_(ways),
        num_sets_(size_bytes / (line_bytes * ways)),
        sets_(static_cast<std::size_t>(num_sets_) * ways) {}

  /// Touches the line containing `addr`; returns true on hit.
  bool access(std::uint64_t addr) {
    return access_line(addr / static_cast<std::uint64_t>(line_bytes_));
  }

  /// Touches line number `line` (address / line size); returns true on hit.
  bool access_line(std::uint64_t line) {
    const std::size_t set = static_cast<std::size_t>(line % static_cast<std::uint64_t>(num_sets_));
    Entry* base = &sets_[set * static_cast<std::size_t>(ways_)];
    ++clock_;
    for (int w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line) {
        base[w].last_used = clock_;
        ++hits_;
        return true;
      }
    }
    // Miss: fill the LRU way.
    int victim = 0;
    for (int w = 1; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = w;
        break;
      }
      if (base[w].last_used < base[victim].last_used) victim = w;
    }
    base[victim] = {line, clock_, true};
    ++misses_;
    return false;
  }

  void reset() {
    for (Entry& e : sets_) e = Entry{};
    hits_ = misses_ = 0;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t tag = 0;
    std::uint64_t last_used = 0;
    bool valid = false;
  };

  int line_bytes_;
  int ways_;
  int num_sets_;
  std::vector<Entry> sets_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace safara::vgpu
