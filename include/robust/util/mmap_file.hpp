// Windowed memory-mapped file access for the out-of-core streaming lane.
//
// The streaming engine (core::analyzeStream) sweeps instance files far
// larger than RAM. It never maps the whole file: each shard asks for one
// window of a few megabytes, and the window is remapped in place as the
// shard pointer advances, so the resident address-space cost is
// O(window), not O(file) — the CI perf leg pins this by running under a
// `ulimit -v` smaller than the file.
//
// Portability: on POSIX the window is an mmap(PROT_READ) region; where
// mmap is unavailable — or disabled via MmapFile::setForceFallback(true)
// or the ROBUST_NO_MMAP environment variable — the window is a reusable
// heap buffer filled with positional reads. Both paths hand back the same
// bytes; the fallback exists so every test can run the exact streaming
// code with mmap taken out of the picture.
//
// Thread safety: one MmapFile may serve many threads concurrently as long
// as each uses its own View (the fd is only touched with positional
// reads, which do not share a file offset).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace robust::util {

/// Read-only random-access file with reusable mapped (or read-backed)
/// windows. Neither copyable nor movable; the destructor closes the file.
class MmapFile {
 public:
  /// One materialized window of the file. Reusing a View across view()
  /// calls remaps (or refills) in place: the steady state performs no
  /// heap allocation. data() stays 8-byte aligned whenever the requested
  /// offset is 8-byte aligned, so windows of packed doubles can be
  /// reinterpreted directly.
  class View {
   public:
    View() = default;
    ~View() { reset(); }
    View(const View&) = delete;
    View& operator=(const View&) = delete;

    [[nodiscard]] const std::byte* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Unmaps the current window; the fallback buffer keeps its capacity.
    void reset() noexcept;

   private:
    friend class MmapFile;
    void* map_ = nullptr;  ///< mmap base (page aligned); null on fallback
    std::size_t mapLength_ = 0;
    const std::byte* data_ = nullptr;
    std::size_t size_ = 0;
    std::vector<double> buffer_;  ///< fallback storage (double-aligned)
  };

  MmapFile() = default;
  /// Opens `path` read-only; throws std::runtime_error when it cannot.
  explicit MmapFile(const std::string& path);
  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  [[nodiscard]] bool isOpen() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Materializes bytes [offset, offset + length) into `out`, replacing
  /// whatever window `out` held. Throws InvalidArgumentError when the
  /// range leaves the file, std::runtime_error on an I/O failure. When
  /// observability is on, tallies io.mmap.bytes_mapped (mapped windows)
  /// or io.mmap.bytes_read (fallback fills).
  void view(std::uint64_t offset, std::size_t length, View& out) const;

  /// Test hook: forces every subsequent view() onto the positional-read
  /// fallback (also enabled by the ROBUST_NO_MMAP environment variable,
  /// read once at first use).
  static void setForceFallback(bool on) noexcept;

 private:
  void close() noexcept;

  int fd_ = -1;
  std::uint64_t size_ = 0;
  std::string path_;
};

}  // namespace robust::util
