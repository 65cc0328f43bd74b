// serve_fleet and serve_small_frames: an in-process fleet::IngestServer on
// loopback TCP in front of a 2-shard kBlock FleetMonitor, fed EMWF frames by
// a load generator over 4 client connections. The generator runs on the
// calling thread; the server loop and the two shard workers make the other
// three of the workload's four threads.
//
// Both are open loops: frames leave on a fixed schedule whatever the server
// does. A frame counts as scored when its device's traces_ingested reaches
// the frame's per-device ordinal (per-device order is guaranteed,
// cross-device order is not). The generator polls FleetMonitor::stats() at a
// fixed cadence between sends; latency runs from the frame's scheduled send
// time to the poll that saw it scored.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <deque>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fleet/fleet.hpp"
#include "fleet/server.hpp"
#include "io/snapshot.hpp"
#include "io/wire.hpp"
#include "util/alloc_counter.hpp"
#include "workloads.hpp"

namespace emsbench {

namespace fleet = emts::fleet;
namespace io = emts::io;
namespace wire = emts::io::wire;

namespace {

struct ServeSpec {
  std::string workload;
  std::size_t devices = 16;
  std::size_t armed = 0;          // the last `armed` devices, one per Trojan
  std::size_t slice = 0;          // samples per frame (0 = whole capture)
  double rate = 0.0;              // frames/s, sent on a fixed schedule
  std::uint64_t sample_every = 1; // latency of every Nth frame per device
};

constexpr std::size_t kConnections = 4;
constexpr std::size_t kShards = 2;
constexpr double kWarmupS = 1.0;       // sent and replayed, not measured
constexpr double kArmFraction = 0.3;   // armed devices switch at this share of their frames
// stats() waits for each shard's in-flight score per session; polling more
// often than this slows the generator and the workers it observes.
constexpr std::int64_t kPollIntervalNs = 1'000'000;
constexpr std::size_t kReplayFrames = 1024;   // frames re-decoded and re-submitted when traced
constexpr std::size_t kSubmitChunk = 64;
constexpr std::size_t kSnapshotRounds = 5;
constexpr unsigned kServerCpu = 2;
constexpr unsigned kGeneratorCpu = 3;
constexpr std::int64_t kSpinNs = 60'000;          // generator spins this long before a due send
constexpr std::int64_t kBlockedRetryNs = 100'000;  // retry a full socket this often
constexpr std::size_t kSendBatch = 64;             // frames per sendmsg()

std::string device_id(std::size_t d) {
  char text[32];
  std::snprintf(text, sizeof text, "dev-%03zu", d);
  return text;
}

/// Frame identifier shared by every span of one frame.
std::uint64_t frame_op(std::size_t device, std::uint64_t ordinal) {
  return (static_cast<std::uint64_t>(device) << 40) | ordinal;
}

/// What each device sends: golden pool captures, and for armed devices the
/// Trojan's burst (cycled) from ordinal arm_at + 1 on. Every distinct frame
/// is encoded once up front, so the generator's per-frame cost is a send and
/// it keeps its schedule while the server is busy.
class FramePlan {
 public:
  FramePlan(const World& world, const ServeSpec& spec, std::uint64_t arm_at)
      : world_{world}, spec_{spec}, arm_at_{arm_at} {
    golden_frames_.resize(spec.devices);
    for (std::size_t d = 0; d < spec.devices; ++d) {
      for (const core::Trace& trace : world.golden) golden_frames_[d].push_back(encode(d, trace));
    }
    for (std::size_t d = 0; d < spec.devices; ++d) {
      if (!armed_device(d)) continue;
      armed_frames_.emplace_back();
      for (const core::Trace& trace : world.armed[trojan_of(d)]) {
        armed_frames_.back().push_back(encode(d, trace));
      }
    }
  }

  bool armed_device(std::size_t d) const { return d + spec_.armed >= spec_.devices; }
  std::size_t trojan_of(std::size_t d) const { return d + spec_.armed - spec_.devices; }
  std::uint64_t arm_at() const { return arm_at_; }

  /// Capture of device d's k-th frame (k >= 1).
  const core::Trace& trace(std::size_t d, std::uint64_t k) const {
    if (armed_device(d) && k > arm_at_) {
      const auto& burst = world_.armed[trojan_of(d)];
      return burst[(k - arm_at_ - 1) % burst.size()];
    }
    return world_.golden[golden_index(d, k)];
  }

  /// EMWF bytes of device d's k-th frame.
  const std::string& frame(std::size_t d, std::uint64_t k) const {
    if (armed_device(d) && k > arm_at_) {
      const auto& burst = armed_frames_[trojan_of(d)];
      return burst[(k - arm_at_ - 1) % burst.size()];
    }
    return golden_frames_[d][golden_index(d, k)];
  }

  std::string encode(std::size_t d, const core::Trace& trace) const {
    std::string bytes;
    wire::encode_trace_frame(device_id(d), world_.sample_rate, trace.data(), trace.size(), bytes);
    return bytes;
  }

 private:
  std::size_t golden_index(std::size_t d, std::uint64_t k) const {
    return static_cast<std::size_t>((d * 37 + k) % world_.golden.size());
  }

  const World& world_;
  const ServeSpec& spec_;
  std::uint64_t arm_at_;
  std::vector<std::vector<std::string>> golden_frames_;  // [device][pool index]
  std::vector<std::vector<std::string>> armed_frames_;   // [trojan][burst index]
};

/// Pins the calling thread to one CPU while alive, when the machine has the
/// four the workload is sized for; the shard workers stay unpinned and the
/// scheduler places them on the other two. Restores the previous mask, so
/// threads started afterwards are not confined.
class CpuPin {
 public:
  explicit CpuPin(unsigned cpu) {
    if (std::thread::hardware_concurrency() < kMaxThreads) return;
    if (::pthread_getaffinity_np(::pthread_self(), sizeof saved_, &saved_) != 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pinned_ = ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) == 0;
  }
  ~CpuPin() {
    if (pinned_) ::pthread_setaffinity_np(::pthread_self(), sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

std::uint16_t free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string{std::strerror(errno)});
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot find a free loopback port");
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string{std::strerror(errno)});
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("connect: " + std::string{std::strerror(errno)});
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Server + fleet + the thread running the server loop. Destruction stops the
/// loop (clean shutdown: drain, flush, final snapshot) and joins it.
class Daemon {
 public:
  Daemon(const World& world, const ServeSpec& spec, const std::string& snapshot_path) {
    fleet::FleetOptions options;
    options.shards = kShards;
    options.backpressure = fleet::BackpressurePolicy::kBlock;
    fleet_ = std::make_unique<fleet::FleetMonitor>(options);
    for (std::size_t d = 0; d < spec.devices; ++d) fleet_->add_device(device_id(d), world.evaluator);

    // Incremental snapshots, written at shutdown only: on a shared disk each
    // cut's fsync took 90-210 ms and stalled scoring for up to 450 ms, which
    // would make the measured tail the disk's, not the server's.
    fleet::ServerOptions server_options;
    server_options.allow = {"127.0.0.1"};
    server_options.snapshot_path = snapshot_path;
    server_options.incremental_snapshots = true;
    for (int attempt = 0;; ++attempt) {
      port_ = free_loopback_port();
      server_options.listen_address = "127.0.0.1:" + std::to_string(port_);
      try {
        server_ = std::make_unique<fleet::IngestServer>(*fleet_, server_options);
        break;
      } catch (const std::exception&) {
        if (attempt >= 8) throw;
      }
    }
  }

  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void start() {
    thread_ = std::thread{[this] {
      const CpuPin pin{kServerCpu};
      try {
        server_->run(stop_, snapshot_request_);
      } catch (...) {
        error_ = std::current_exception();
      }
    }};
  }

  /// Stops the server loop and joins it; rethrows a server-loop exception.
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

  std::uint16_t port() const { return port_; }
  fleet::FleetMonitor& fleet() { return *fleet_; }
  const fleet::IngestServer& server() const { return *server_; }

 private:
  std::unique_ptr<fleet::FleetMonitor> fleet_;
  std::unique_ptr<fleet::IngestServer> server_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> snapshot_request_{false};
  std::exception_ptr error_;
  std::thread thread_;
};

struct Connection {
  int fd = -1;
  std::deque<const std::string*> pending;  // frames not yet taken by the kernel
  std::size_t offset = 0;           // bytes of pending.front() already sent

  bool idle() const { return pending.empty(); }
};

/// Load generator + scored-frame observer, run on the calling thread.
class Generator {
 public:
  Generator(const ServeSpec& spec, const World& world, const FramePlan& plan,
            fleet::FleetMonitor& fleet, std::uint16_t port, SpanRecorder& spans)
      : spec_{spec},
        world_{world},
        plan_{plan},
        fleet_{fleet},
        spans_{spans},
        sent_at_(spec.devices),
        sent_count_(spec.devices, 0),
        observed_(spec.devices, 0),
        encode_span_{spans.intern("io.wire.encode")},
        poll_span_{spans.intern("fleet.stats_poll")} {
    for (std::size_t c = 0; c < kConnections; ++c) {
      Connection conn;
      conn.fd = connect_loopback(port);
      conns_.push_back(std::move(conn));
    }
  }

  ~Generator() { close(); }

  /// Closes every client connection (the server sees clean EOFs).
  void close() {
    for (Connection& conn : conns_) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Sends for warmup + measured seconds, then waits until every sent frame
  /// is scored (or a minute passes). With `trace`, the second half of the
  /// measured window records spans.
  void run(double measured_s, bool trace) {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const CpuPin pin{kGeneratorCpu};
    start_ns_ = now_ns();
    measure_from_ = start_ns_ + static_cast<std::int64_t>(kWarmupS * 1e9);
    send_end_ = measure_from_ + static_cast<std::int64_t>(measured_s * 1e9);
    traced_from_ = trace ? measure_from_ + static_cast<std::int64_t>(measured_s * 0.5e9)
                         : send_end_ + 1;
    const double period_ns = 1e9 / spec_.rate;
    std::uint64_t j = 0;  // open loop: global frame index
    std::int64_t next_poll = start_ns_;
    const std::int64_t drain_deadline = send_end_ + 60'000'000'000LL;

    for (;;) {
      std::int64_t now = now_ns();
      const bool sending = now < send_end_;
      if (sending) {
        for (;;) {
          const std::int64_t due = start_ns_ + static_cast<std::int64_t>(
                                                   static_cast<double>(j) * period_ns);
          if (due > now) break;
          const std::size_t d = j % spec_.devices;
          if (due >= measure_from_) late_us.push_back(ns_to_us(now - due));
          enqueue_frame(conns_[d % conns_.size()], d, due, now);
          ++j;
        }
      }
      for (Connection& conn : conns_) flush(conn);

      now = now_ns();
      if (now >= next_poll) {
        poll_scored(now);
        next_poll = now + kPollIntervalNs;
        if (!sending && all_idle() && all_scored()) break;
        if (now > drain_deadline) break;
      }

      // Sleep until shortly before the next due frame or stats poll, then
      // spin: a parked thread can take tens of microseconds to wake, and
      // spinning the whole time would keep a core busy that the server and
      // shard workers need.
      std::int64_t wake = next_poll;
      if (sending) {
        wake = std::min(wake, start_ns_ + static_cast<std::int64_t>(
                                              static_cast<double>(j) * period_ns));
      }
      if (!all_idle()) wake = std::min(wake, now_ns() + kBlockedRetryNs);
      const std::int64_t sleep_ns = wake - kSpinNs - now_ns();
      if (sleep_ns > 0) {
        const timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                          static_cast<long>(sleep_ns % 1'000'000'000)};
        ::nanosleep(&ts, nullptr);
      }
    }
  }

  bool all_scored() const {
    for (std::size_t d = 0; d < spec_.devices; ++d) {
      if (observed_[d] < sent_count_[d]) return false;
    }
    return true;
  }

  std::uint64_t frames_sent() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : sent_count_) total += n;
    return total;
  }
  std::uint64_t frames_sent(std::size_t d) const { return sent_count_[d]; }
  std::uint64_t frames_unscored() const {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < spec_.devices; ++d) total += sent_count_[d] - observed_[d];
    return total;
  }

  std::vector<double> latency_us;         // measured frames, untraced part
  std::vector<double> traced_latency_us;  // measured frames, traced part
  std::vector<double> late_us;            // enqueue time - scheduled time
  std::vector<double> poll_us;
  double throughput = 0.0;                // scored frames/s over the measured window

 private:
  void enqueue_frame(Connection& conn, std::size_t d, std::int64_t send_time, std::int64_t now) {
    const std::uint64_t k = ++sent_count_[d];
    conn.pending.push_back(&plan_.frame(d, k));
    sent_at_[d].push_back(send_time);
    if (now >= traced_from_ && k % spec_.sample_every == 0) {
      // The traced half re-encodes the frames whose latency it samples, to
      // time the wire layer.
      const core::Trace& trace = plan_.trace(d, k);
      const std::int64_t t0 = now_ns();
      encode_scratch_.clear();
      wire::encode_trace_frame(device_ids_[d], world_.sample_rate, trace.data(), trace.size(),
                               encode_scratch_);
      spans_.add(encode_span_, frame_op(d, k), t0, now_ns());
    }
  }

  /// Writes as much of the connection's pending frames as the kernel takes,
  /// up to kSendBatch frames per system call.
  void flush(Connection& conn) {
    while (!conn.pending.empty()) {
      std::array<iovec, kSendBatch> iov{};
      std::size_t count = 0;
      for (const std::string* frame : conn.pending) {
        if (count == iov.size()) break;
        const std::size_t skip = count == 0 ? conn.offset : 0;
        iov[count++] = iovec{const_cast<char*>(frame->data()) + skip, frame->size() - skip};
      }
      msghdr msg{};
      msg.msg_iov = iov.data();
      msg.msg_iovlen = count;
      const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw std::runtime_error("send: " + std::string{std::strerror(errno)});
      // Retire fully sent frames; remember how far into the next one we got.
      auto left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t rest = conn.pending.front()->size() - conn.offset;
        if (left < rest) {
          conn.offset += left;
          break;
        }
        left -= rest;
        conn.pending.pop_front();
        conn.offset = 0;
      }
    }
  }

  bool all_idle() const {
    for (const Connection& conn : conns_) {
      if (!conn.idle()) return false;
    }
    return true;
  }

  /// One stats() poll: marks newly scored frames.
  void poll_scored(std::int64_t now) {
    const std::int64_t t0 = now_ns();
    const fleet::FleetStats stats = fleet_.stats();
    const std::int64_t t1 = now_ns();
    const bool traced = t0 >= traced_from_;
    if (traced) {
      spans_.add(poll_span_, polls_, t0, t1);
      poll_us.push_back(ns_to_us(t1 - t0));
    }
    ++polls_;
    std::uint64_t scored = 0;
    for (std::size_t d = 0; d < stats.sessions.size() && d < spec_.devices; ++d) {
      const std::uint64_t ingested = stats.sessions[d].monitor.traces_ingested;
      scored += ingested;
      auto& sent = sent_at_[d];
      for (; observed_[d] < ingested && !sent.empty(); ++observed_[d]) {
        const std::int64_t send_time = sent.front();
        sent.pop_front();
        if (send_time < measure_from_ || send_time >= send_end_) continue;
        if ((observed_[d] + 1) % spec_.sample_every != 0) continue;
        (send_time >= traced_from_ ? traced_latency_us : latency_us)
            .push_back(ns_to_us(t1 - send_time));
      }
    }
    // Throughput over the measured window: scored counts at the first poll
    // at or after its start and the last poll before its end.
    if (now >= measure_from_ && window_start_ns_ == 0) {
      window_start_ns_ = t1;
      window_start_scored_ = scored;
    }
    if (now < send_end_ && window_start_ns_ != 0 && t1 > window_start_ns_) {
      throughput = static_cast<double>(scored - window_start_scored_) /
                   ns_to_s(t1 - window_start_ns_);
    }
  }

  const ServeSpec& spec_;
  const World& world_;
  const FramePlan& plan_;
  fleet::FleetMonitor& fleet_;
  SpanRecorder& spans_;
  std::vector<Connection> conns_;
  std::string encode_scratch_;
  std::vector<std::deque<std::int64_t>> sent_at_;  // per device: send times of unscored frames
  std::vector<std::uint64_t> sent_count_;          // per device: frames sent
  std::vector<std::uint64_t> observed_;             // per device: frames seen scored
  std::vector<std::string> device_ids_ = [this] {
    std::vector<std::string> ids;
    for (std::size_t d = 0; d < spec_.devices; ++d) ids.push_back(device_id(d));
    return ids;
  }();
  std::uint32_t encode_span_;
  std::uint32_t poll_span_;
  std::uint64_t polls_ = 0;
  std::int64_t start_ns_ = 0, measure_from_ = 0, send_end_ = 0, traced_from_ = 0;
  std::int64_t window_start_ns_ = 0;
  std::uint64_t window_start_scored_ = 0;
};

/// Per-device outcome of the standalone replay.
struct ReplayOutcome {
  MonitorFingerprint fingerprint;
  std::uint64_t first_latch = 0;  // ordinal whose push latched the alarm, 0 = never
};

/// Pushes device d's frames 1..frames through a standalone monitor.
ReplayOutcome replay_device(const World& world, const FramePlan& plan, std::size_t d,
                            std::uint64_t frames, StageProbe* probe, SpanRecorder* spans,
                            std::vector<double>* allocs) {
  core::RuntimeMonitor monitor{world.sample_rate, world.evaluator};
  ReplayOutcome out;
  const std::uint32_t push_span = spans != nullptr ? spans->intern("core.monitor.push") : 0;
  for (std::uint64_t k = 1; k <= frames; ++k) {
    const core::Trace& trace = plan.trace(d, k);
    if (spans != nullptr) {
      const auto before = emts::util::alloc::thread_counts().allocations;
      const std::int64_t t0 = now_ns();
      monitor.push(trace);
      const std::int64_t t1 = now_ns();
      allocs->push_back(
          static_cast<double>(emts::util::alloc::thread_counts().allocations - before));
      const std::int32_t parent = spans->add(push_span, frame_op(d, k), t0, t1);
      if (k % kProbeEvery == 0) probe->probe(trace, frame_op(d, k), parent);
    } else {
      monitor.push(trace);
    }
    if (out.first_latch == 0 && monitor.state() == core::MonitorState::kAlarm) out.first_latch = k;
  }
  out.fingerprint = fingerprint(monitor);
  return out;
}

/// Decode and submit replays of the first sent frames, snapshot cuts and
/// saves on the socket-less replay fleet, and load + restore of the server's
/// final snapshot (traced runs only).
void traced_layer_replays(Result& result, const World& world, const ServeSpec& spec,
                          const FramePlan& plan, const Generator& gen, SpanRecorder& spans,
                          const std::string& scratch_path, const std::string& snapshot_path,
                          const fleet::FleetStats& served) {
  std::uint64_t per_device = gen.frames_sent(0);
  for (std::size_t d = 0; d < spec.devices; ++d) per_device = std::min(per_device, gen.frames_sent(d));
  const std::size_t frames =
      std::min<std::size_t>(kReplayFrames, static_cast<std::size_t>(per_device) * spec.devices);

  // The bytes the generator sent for these frames, re-encoded.
  std::string bytes;
  std::vector<std::size_t> offsets{0};
  for (std::size_t i = 0; i < frames; ++i) {
    bytes += plan.frame(i % spec.devices, i / spec.devices + 1);
    offsets.push_back(bytes.size());
  }

  const std::uint32_t decode_span = spans.intern("io.wire.decode");
  wire::FrameDecoder decoder;
  std::vector<wire::TraceFrame> decoded(frames);
  for (std::size_t i = 0; i < frames; ++i) {
    const std::size_t d = i % spec.devices;
    const std::uint64_t k = i / spec.devices + 1;
    const std::int64_t t0 = now_ns();
    decoder.feed(bytes.data() + offsets[i], offsets[i + 1] - offsets[i]);
    const bool complete = decoder.next(decoded[i]);
    spans.add(decode_span, frame_op(d, k), t0, now_ns());
    if (!complete || decoded[i].device_id != device_id(d) ||
        decoded[i].sample_rate != world.sample_rate || decoded[i].trace != plan.trace(d, k)) {
      result.fail("wire decode replay does not reproduce frame " + std::to_string(i));
      return;
    }
  }

  fleet::FleetOptions options;
  options.shards = kShards;
  options.queue_capacity = kSubmitChunk;
  options.backpressure = fleet::BackpressurePolicy::kBlock;
  fleet::FleetMonitor replay{options};
  for (std::size_t d = 0; d < spec.devices; ++d) replay.add_device(device_id(d), world.evaluator);
  const std::uint32_t submit_span = spans.intern("fleet.submit_frame");
  io::FleetSnapshotRecordCache cache;
  std::vector<double> pause_ms, save_ms, snapshot_bytes;
  for (std::size_t first = 0; first < frames; first += kSubmitChunk) {
    const std::size_t last = std::min(frames, first + kSubmitChunk);
    for (std::size_t i = first; i < last; ++i) {
      const std::uint64_t op = frame_op(i % spec.devices, i / spec.devices + 1);
      const std::int64_t t0 = now_ns();
      replay.submit_frame(std::move(decoded[i]));
      spans.add(submit_span, op, t0, now_ns());
    }
    replay.flush();
    if (frames - first <= kSnapshotRounds * kSubmitChunk) {
      std::int64_t t0 = now_ns();
      const io::FleetSnapshot cut = replay.snapshot(fleet::SnapshotMode::kIncremental);
      pause_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      io::SnapshotSaveStats save_stats;
      t0 = now_ns();
      io::save_fleet_snapshot(scratch_path, cut, cache, &save_stats);
      save_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      snapshot_bytes.push_back(static_cast<double>(std::filesystem::file_size(scratch_path)));
    }
  }
  layer_from_spans(result, spans, "io.wire.decode", "io.wire.decode_us");
  layer_from_spans(result, spans, "fleet.submit_frame", "fleet.submit_frame_us");
  result.set("fleet.snapshot_pause_ms", median(pause_ms), "ms");
  result.set("io.snapshot.save_ms", median(save_ms), "ms");
  result.set("io.snapshot.bytes", median(snapshot_bytes), "bytes");

  // Every session restored from the server's shutdown snapshot must match
  // the served fleet.
  std::int64_t t0 = now_ns();
  const io::FleetSnapshot loaded = io::load_fleet_snapshot(snapshot_path);
  result.set("io.snapshot.load_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms");
  fleet::FleetMonitor restored{options};
  t0 = now_ns();
  restored.restore(loaded);
  result.set("fleet.restore_ms", static_cast<double>(now_ns() - t0) / 1e6, "ms");
  const fleet::FleetStats got = restored.stats();
  bool same = got.sessions.size() == served.sessions.size();
  for (std::size_t i = 0; same && i < got.sessions.size(); ++i) {
    const auto& a = got.sessions[i];
    const auto& b = served.sessions[i];
    same = a.device_id == b.device_id &&
           fingerprint(a.state, a.last_score, a.monitor) == fingerprint(b.state, b.last_score, b.monitor);
  }
  if (!same) result.fail("the server's final snapshot does not restore the served fleet");
}

Result run_serve(const Args& args, SpanRecorder& spans, const ServeSpec& spec) {
  Result result;
  WorldSpec world_spec;
  world_spec.slice = spec.slice;
  world_spec.golden_pool = 64;  // x devices encoded frames
  const std::string snapshot_dir = args.out_dir + "/snapshots";
  std::filesystem::create_directories(snapshot_dir);
  const std::string stem = snapshot_dir + "/" + spec.workload + "_" + std::to_string(args.seed) +
                           "_" + std::to_string(::getpid());
  const std::string snapshot_path = stem + ".emfs";
  const std::string scratch_path = stem + "_replay.emfs";

  // Set-up: captures, calibration, fleet and server start-up; repeated, the
  // last daemon is used.
  const double expected_frames =
      spec.rate * (kWarmupS + args.seconds) / static_cast<double>(spec.devices);
  const auto arm_at = static_cast<std::uint64_t>(std::max(1.0, kArmFraction * expected_frames));
  std::vector<double> setup_s;
  std::optional<World> world;
  std::optional<FramePlan> frames;
  std::unique_ptr<Daemon> daemon;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    daemon.reset();
    frames.reset();
    world.reset();
    {
      const sim::CaptureEngine engine{sim::EngineOptions{kSetupEngineThreads, 4}};
      world.emplace(build_world(args.seed, world_spec, engine));
    }
    frames.emplace(*world, spec, arm_at);
    daemon = std::make_unique<Daemon>(*world, spec, snapshot_path);
    setup_s.push_back(ns_to_s(now_ns() - t0));
  }
  result.set("setup_s", median(setup_s), "s");
  const FramePlan& plan = *frames;

  daemon->start();
  Generator gen{spec, *world, plan, daemon->fleet(), daemon->port(), spans};
  gen.run(args.seconds, args.trace);
  gen.close();
  daemon->stop();
  daemon->rethrow();
  const fleet::ServerCounters counters = daemon->server().counters();
  const fleet::FleetStats served = daemon->fleet().stats();
  daemon.reset();  // joins the shard workers before the replay threads start

  result.attempted = gen.frames_sent();
  std::uint64_t failed = gen.frames_unscored() + counters.frames_rejected;
  if (counters.frames_accepted != gen.frames_sent()) {
    result.fail("server accepted " + std::to_string(counters.frames_accepted) + " of " +
                std::to_string(gen.frames_sent()) + " frames");
  }
  if (gen.frames_unscored() != 0) {
    result.fail(std::to_string(gen.frames_unscored()) + " frames were never scored");
  }
  if (counters.connections_dropped != 0 || counters.frames_rejected != 0) {
    result.fail("server dropped connections or rejected frames");
  }

  result.set("traces_per_s", gen.throughput, "1/s");
  summarize_latency(result, "latency", gen.latency_us);
  result.set("generator.late_p99_us", quantile(gen.late_us, 0.99), "us");

  // Correctness gate: every session equals a standalone replay of its frames.
  std::vector<ReplayOutcome> outcomes(spec.devices);
  std::vector<double> allocs;
  std::optional<StageProbe> probe;
  std::size_t first_parallel = 0;
  if (args.trace) {
    probe.emplace(world->evaluator, world->sample_rate, world->trace_samples, spans);
    outcomes[0] = replay_device(*world, plan, 0, gen.frames_sent(0), &*probe, &spans, &allocs);
    first_parallel = 1;
  }
  {
    std::atomic<std::size_t> next{first_parallel};
    std::vector<std::thread> workers;
    std::exception_ptr error;
    std::mutex error_mutex;
    for (std::size_t t = 0; t < std::min(kMaxThreads, spec.devices); ++t) {
      workers.emplace_back([&] {
        try {
          for (std::size_t d = next++; d < spec.devices; d = next++) {
            outcomes[d] = replay_device(*world, plan, d, gen.frames_sent(d), nullptr, nullptr, nullptr);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          error = std::current_exception();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (error) std::rethrow_exception(error);
  }

  std::size_t latched = 0, false_alarms = 0;
  std::uint64_t passes = 0, windowed = 0, alarms = 0;
  for (std::size_t d = 0; d < spec.devices; ++d) {
    const fleet::SessionStats& s = served.sessions.at(d);
    const MonitorFingerprint got = fingerprint(s.state, s.last_score, s.monitor);
    if (s.device_id != device_id(d) || !(got == outcomes[d].fingerprint)) {
      result.fail(device_id(d) + " diverged from its standalone replay: " + describe(got) +
                  " vs " + describe(outcomes[d].fingerprint));
    }
    const std::uint64_t latch = outcomes[d].first_latch;
    if (latch != 0 && (!plan.armed_device(d) || latch <= plan.arm_at())) ++false_alarms;
    if (plan.armed_device(d) && latch > plan.arm_at()) ++latched;
    passes += s.monitor.spectral_passes;
    windowed += s.monitor.windowed_anomalies;
    alarms += s.monitor.alarms_latched;
  }
  if (false_alarms != 0) result.fail(std::to_string(false_alarms) + " false alarms");

  result.set("trojans_latched", static_cast<double>(latched), "count");
  result.set("false_alarms", static_cast<double>(false_alarms), "count");
  result.set("core.monitor.spectral_passes", static_cast<double>(passes), "count");
  result.set("core.monitor.windowed_anomalies", static_cast<double>(windowed), "count");
  result.set("core.monitor.alarms_latched", static_cast<double>(alarms), "count");

  std::uint64_t blocked = 0, max_processed = 0, total_processed = 0;
  std::size_t high_water = 0;
  for (const fleet::ShardStats& shard : served.shards) {
    blocked += shard.blocked;
    high_water = std::max(high_water, shard.queue_high_water);
    max_processed = std::max(max_processed, shard.processed);
    total_processed += shard.processed;
  }
  result.set("fleet.shard.blocked", static_cast<double>(blocked), "count");
  result.set("fleet.shard.queue_high_water", static_cast<double>(high_water), "count");
  result.set("fleet.shard_skew",
             total_processed == 0 ? 0.0
                                  : static_cast<double>(max_processed) * static_cast<double>(served.shards.size()) /
                                        static_cast<double>(total_processed),
             "ratio");
  result.set("server.bytes_received", static_cast<double>(counters.bytes_received), "bytes");
  result.set("server.frames_accepted", static_cast<double>(counters.frames_accepted), "count");
  result.set("server.frames_rejected", static_cast<double>(counters.frames_rejected), "count");
  result.set("server.connections_dropped", static_cast<double>(counters.connections_dropped), "count");
  result.set("server.snapshots_written", static_cast<double>(counters.snapshots_written), "count");
  result.set("server.snapshots_forced", static_cast<double>(counters.snapshots_forced), "count");
  result.set("server.snapshot_records_reused", static_cast<double>(counters.snapshot_records_reused),
             "count");
  result.set("server.snapshot_records_rewritten",
             static_cast<double>(counters.snapshot_records_rewritten), "count");

  if (args.trace) {
    result.set("core.monitor.allocs_per_push", mean(allocs), "count");
    StageProbe::report(result, spans);
    layer_from_spans(result, spans, "io.wire.encode", "io.wire.encode_us");
    layer_from_spans(result, spans, "fleet.stats_poll", "fleet.stats_poll_us");
    traced_layer_replays(result, *world, spec, plan, gen, spans, scratch_path, snapshot_path,
                         served);
    const double traced_p50 = median(gen.traced_latency_us);
    result.set("tracing_overhead_us", traced_p50 - median(gen.latency_us), "us");
    const double stages = result.metrics["io.wire.encode_us"].value +
                          result.metrics["io.wire.decode_us"].value +
                          result.metrics["fleet.submit_frame_us"].value +
                          result.metrics["core.euclidean.score_us"].value +
                          result.metrics["dsp.fft_plan.forward_us"].value;
    result.set("unattributed_share", unattributed_share(traced_p50, stages), "share");
  }
  std::filesystem::remove(snapshot_path);
  std::filesystem::remove(scratch_path);
  result.failed = result.correct ? std::min(failed, result.attempted) : result.attempted;

  result.describe_num("devices", static_cast<double>(spec.devices));
  result.describe_num("armed_devices", static_cast<double>(spec.armed));
  if (spec.armed > 0) result.describe_num("arm_at_frame", static_cast<double>(plan.arm_at()));
  result.describe_num("trace_samples", static_cast<double>(world->trace_samples));
  result.describe_num("shards", kShards);
  result.describe_num("queue_capacity", static_cast<double>(fleet::FleetOptions{}.queue_capacity));
  result.describe_str("policy", "block");
  result.describe_num("client_connections", kConnections);
  result.describe_num("client_threads", 1);
  result.describe_num("server_threads", 1);
  result.describe_num("engine_threads_setup", kSetupEngineThreads);
  result.describe_str("loop", "open, fixed rate");
  result.describe_num("latency_sampled_every_nth_frame", static_cast<double>(spec.sample_every));
  result.describe_num("offered_rate_per_s", spec.rate);
  result.describe_num("warmup_s", kWarmupS);
  result.describe_num("stats_poll_interval_us", static_cast<double>(kPollIntervalNs) / 1e3);
  result.describe_str("snapshots", "incremental, at shutdown after the measured window");
  const std::string fs = filesystem_type(snapshot_dir);
  result.describe_str("snapshot_fs", fs);
  result.describe_str("snapshot_fs_ram_backed", fs == "tmpfs" || fs == "ramfs" ? "yes" : "no");
  return result;
}

}  // namespace

Result run_serve_fleet(const Args& args, SpanRecorder& spans) {
  ServeSpec spec;
  spec.workload = "serve_fleet";
  spec.devices = 16;
  spec.armed = std::size(trojan::kAllTrojanKinds);
  spec.rate = 8000.0;
  return run_serve(args, spans, spec);
}

Result run_serve_small_frames(const Args& args, SpanRecorder& spans) {
  ServeSpec spec;
  spec.workload = "serve_small_frames";
  spec.devices = 64;
  spec.slice = 256;
  spec.rate = 150000.0;
  spec.sample_every = 16;
  return run_serve(args, spans, spec);
}

}  // namespace emsbench
