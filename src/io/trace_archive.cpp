#include "io/trace_archive.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>

#include "io/mmap_archive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::io {

namespace {

// The EMTA v1 header, for the writer and the reader alike: magic, then the
// little-endian fields at these byte offsets, then the payload.
constexpr char kMagic[4] = {'E', 'M', 'T', 'A'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kVersionAt = 4;      // u32
constexpr std::size_t kCountAt = 8;        // u64 trace count
constexpr std::size_t kLengthAt = 16;      // u64 trace length
constexpr std::size_t kRateAt = 24;        // f64 sample rate, Hz
constexpr std::size_t kHeaderBytes = 32;   // float64 samples follow, trace-major

template <typename T>
void put(char* header, std::size_t at, T value) {
  std::memcpy(header + at, &value, sizeof value);
}

template <typename T>
T get(const char* header, std::size_t at) {
  T value{};
  std::memcpy(&value, header + at, sizeof value);
  return value;
}

}  // namespace

void save_trace_archive(const std::string& path, const core::TraceSet& set) {
  EMTS_REQUIRE(!set.empty(), "cannot archive an empty trace set");
  set.validate();

  std::ofstream out{path, std::ios::binary};
  EMTS_REQUIRE(out.good(), "save_trace_archive: cannot open " + path);

  char header[kHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof kMagic);
  put(header, kVersionAt, kVersion);
  put(header, kCountAt, static_cast<std::uint64_t>(set.size()));
  put(header, kLengthAt, static_cast<std::uint64_t>(set.trace_length()));
  put(header, kRateAt, set.sample_rate);
  out.write(header, sizeof header);

  for (const core::Trace& trace : set.traces) {
    out.write(reinterpret_cast<const char*>(trace.data()),
              static_cast<std::streamsize>(trace.size() * sizeof(double)));
  }
  EMTS_REQUIRE(out.good(), "save_trace_archive: write failed for " + path);
}

core::TraceSet load_trace_archive(const std::string& path) {
  const MappedTraceArchive archive{path};
  core::TraceSet set;
  set.sample_rate = archive.sample_rate();
  set.reserve(archive.size());
  for (std::size_t t = 0; t < archive.size(); ++t) set.add(archive.trace_copy(t));
  return set;
}

MappedTraceArchive::MappedTraceArchive(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  EMTS_REQUIRE(fd >= 0, "trace archive: cannot open " + path);

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    EMTS_REQUIRE(false, "trace archive: cannot stat " + path);
  }
  const std::size_t file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    EMTS_REQUIRE(false, "trace archive: truncated header in " + path);
  }

  void* mapping = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  EMTS_REQUIRE(mapping != MAP_FAILED, "trace archive: mmap failed for " + path);
  mapping_ = mapping;
  mapping_bytes_ = file_bytes;

  const char* bytes = static_cast<const char*>(mapping);
  const auto version = get<std::uint32_t>(bytes, kVersionAt);
  const auto trace_count = get<std::uint64_t>(bytes, kCountAt);
  const auto trace_length = get<std::uint64_t>(bytes, kLengthAt);
  const auto sample_rate = get<double>(bytes, kRateAt);

  try {
    EMTS_REQUIRE(std::memcmp(bytes, kMagic, sizeof kMagic) == 0,
                 "trace archive: bad magic in " + path);
    EMTS_REQUIRE(version == kVersion, "trace archive: unsupported version");
    EMTS_REQUIRE(trace_count > 0 && trace_length > 0, "trace archive: empty archive " + path);
    EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
                 "trace archive: bad sample rate");
    EMTS_REQUIRE(trace_count < (1ull << 32) && trace_length < (1ull << 32),
                 "trace archive: implausible sizes in " + path);
    // The whole-file shape check: header + samples must account for every
    // byte, so a truncated or padded file is rejected up front — there is no
    // per-trace read to fail later. Both factors may be up to 2^32-1, so the
    // product can wrap u64 (e.g. 2^31 x 2^30 x 8 = 2^64 ≡ 0) and make a
    // crafted header agree with a header-only file; multiply checked.
    std::uint64_t sample_count = 0;
    std::uint64_t payload_bytes = 0;
    EMTS_REQUIRE(util::checked_mul_u64(trace_count, trace_length, &sample_count) &&
                     util::checked_mul_u64(sample_count, sizeof(double), &payload_bytes),
                 "trace archive: declared shape overflows in " + path);
    EMTS_REQUIRE(file_bytes == kHeaderBytes + payload_bytes,
                 "trace archive: file size disagrees with declared shape in " + path);
  } catch (...) {
    unmap();
    throw;
  }

  samples_ = reinterpret_cast<const double*>(bytes + kHeaderBytes);
  trace_count_ = static_cast<std::size_t>(trace_count);
  trace_length_ = static_cast<std::size_t>(trace_length);
  sample_rate_ = sample_rate;
}

MappedTraceArchive::~MappedTraceArchive() { unmap(); }

MappedTraceArchive::MappedTraceArchive(MappedTraceArchive&& other) noexcept {
  *this = std::move(other);
}

MappedTraceArchive& MappedTraceArchive::operator=(MappedTraceArchive&& other) noexcept {
  if (this != &other) {
    unmap();
    mapping_ = std::exchange(other.mapping_, nullptr);
    mapping_bytes_ = std::exchange(other.mapping_bytes_, 0);
    samples_ = std::exchange(other.samples_, nullptr);
    trace_count_ = std::exchange(other.trace_count_, 0);
    trace_length_ = std::exchange(other.trace_length_, 0);
    sample_rate_ = other.sample_rate_;
  }
  return *this;
}

void MappedTraceArchive::unmap() noexcept {
  if (mapping_ != nullptr) {
    ::munmap(mapping_, mapping_bytes_);
    mapping_ = nullptr;
    mapping_bytes_ = 0;
    samples_ = nullptr;
  }
}

const double* MappedTraceArchive::trace(std::size_t i) const {
  EMTS_REQUIRE(i < trace_count_, "trace archive: trace index out of range");
  return samples_ + i * trace_length_;
}

core::Trace MappedTraceArchive::trace_copy(std::size_t i) const {
  const double* begin = trace(i);
  return core::Trace(begin, begin + trace_length_);
}

}  // namespace emts::io
