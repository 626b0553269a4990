#include "robust/util/mmap_file.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "robust/obs/metrics.hpp"
#include "robust/util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ROBUST_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define ROBUST_HAVE_MMAP 0
#include <fstream>
#endif

namespace robust::util {

namespace {

std::atomic<bool> gForceFallback{false};

bool fallbackForced() noexcept {
  static const bool env = [] {
    const char* v = std::getenv("ROBUST_NO_MMAP");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return env || gForceFallback.load(std::memory_order_relaxed);
}

void tallyBytes(bool mapped, std::uint64_t bytes) {
  if (obs::enabled()) [[unlikely]] {
    static const obs::MetricId kMapped = obs::counterId("io.mmap.bytes_mapped");
    static const obs::MetricId kRead = obs::counterId("io.mmap.bytes_read");
    obs::addCounter(mapped ? kMapped : kRead, bytes);
  }
}

}  // namespace

void MmapFile::setForceFallback(bool on) noexcept {
  gForceFallback.store(on, std::memory_order_relaxed);
}


void MmapFile::View::reset() noexcept {
#if ROBUST_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(map_, mapLength_);
  }
#endif
  map_ = nullptr;
  mapLength_ = 0;
  data_ = nullptr;
  size_ = 0;
}

#if ROBUST_HAVE_MMAP

MmapFile::MmapFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw std::runtime_error("mmap_file: cannot open '" + path + "'");
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("mmap_file: cannot stat '" + path + "'");
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
}

void MmapFile::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MmapFile::view(std::uint64_t offset, std::size_t length,
                    View& out) const {
  ROBUST_REQUIRE(fd_ >= 0, "mmap_file: view() on a closed file");
  ROBUST_REQUIRE(offset <= size_ && length <= size_ - offset,
                 "mmap_file: view range leaves the file");
  out.reset();
  if (length == 0) {
    return;
  }
  if (!fallbackForced()) {
    // Window-map only the requested range, rounded out to page bounds:
    // the address-space cost stays O(window) however large the file is.
    static const auto pageSize =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t mapStart = offset - offset % pageSize;
    const std::size_t mapLength =
        static_cast<std::size_t>(offset - mapStart) + length;
    void* base = ::mmap(nullptr, mapLength, PROT_READ, MAP_PRIVATE, fd_,
                        static_cast<off_t>(mapStart));
    if (base != MAP_FAILED) {
      out.map_ = base;
      out.mapLength_ = mapLength;
      out.data_ =
          static_cast<const std::byte*>(base) + (offset - mapStart);
      out.size_ = length;
      tallyBytes(/*mapped=*/true, length);
      return;
    }
    // mmap refused (address-space cap, exotic filesystem): fall through
    // to the positional-read fallback rather than failing the scan.
  }
  out.buffer_.resize((length + sizeof(double) - 1) / sizeof(double));
  auto* dst = reinterpret_cast<std::byte*>(out.buffer_.data());
  std::size_t done = 0;
  while (done < length) {
    const ::ssize_t got =
        ::pread(fd_, dst + done, length - done,
                static_cast<off_t>(offset + done));
    if (got < 0) {
      throw std::runtime_error("mmap_file: read failed on '" + path_ + "'");
    }
    if (got == 0) {
      throw std::runtime_error("mmap_file: '" + path_ +
                               "' shrank while being read");
    }
    done += static_cast<std::size_t>(got);
  }
  out.data_ = dst;
  out.size_ = length;
  tallyBytes(/*mapped=*/false, length);
}

#else  // !ROBUST_HAVE_MMAP

MmapFile::MmapFile(const std::string& path) : path_(path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw std::runtime_error("mmap_file: cannot open '" + path + "'");
  }
  size_ = static_cast<std::uint64_t>(in.tellg());
  fd_ = 0;  // marks the file as open; each view() reopens by path
}

void MmapFile::close() noexcept { fd_ = -1; }

void MmapFile::view(std::uint64_t offset, std::size_t length,
                    View& out) const {
  ROBUST_REQUIRE(fd_ >= 0, "mmap_file: view() on a closed file");
  ROBUST_REQUIRE(offset <= size_ && length <= size_ - offset,
                 "mmap_file: view range leaves the file");
  out.reset();
  if (length == 0) {
    return;
  }
  // No mmap on this platform: a per-call stream keeps view() thread-safe
  // (no shared file offset) at the cost of an open per window.
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    throw std::runtime_error("mmap_file: cannot reopen '" + path_ + "'");
  }
  out.buffer_.resize((length + sizeof(double) - 1) / sizeof(double));
  auto* dst = reinterpret_cast<char*>(out.buffer_.data());
  in.seekg(static_cast<std::streamoff>(offset));
  if (!in.read(dst, static_cast<std::streamsize>(length))) {
    throw std::runtime_error("mmap_file: read failed on '" + path_ + "'");
  }
  out.data_ = reinterpret_cast<const std::byte*>(dst);
  out.size_ = length;
  tallyBytes(/*mapped=*/false, length);
}

#endif  // ROBUST_HAVE_MMAP

MmapFile::~MmapFile() { close(); }

}  // namespace robust::util
