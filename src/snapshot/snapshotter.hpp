// Snapshotter: takes the expensive half of snapshotting off the engine
// thread.
//
// A capture must run on the engine thread (the engine must not advance
// mid-copy — that is what epoch consistency means), and a from-scratch
// capture of a churned world is mostly wasted work: measured on response_1k
// it cost 6–8 ms, most of it re-serializing retired rows that can never
// change again. So the Snapshotter keeps the images its worker has
// finished encoding as SPARES, and request() refreshes the newest in place
// (snapshot::refresh): retired rows stay as they are, and only the slot
// table, the live rows, the rows that changed and the engine section are
// written afresh. The refreshed image is byte-for-byte what a fresh
// capture would encode. request() then hands the image to the worker,
// which encodes it (byte packing + CRC32 over every section) and delivers
// the bytes to the sink.
//
// A spare keeps every row except the live rows' sample histories, which
// the worker frees after encoding: they are most of an image's memory, and
// a world that keeps growing between checkpoints reuses it (a spare that
// kept them cost +13–17% peak RSS on response_1k). Refresh then copies
// each live history whole, one contiguous copy per live row.
//
// A bounded two-image queue keeps memory flat. request() claims its queue
// slot before it captures, blocking only while BOTH slots are still in
// flight, i.e. snapshots are being requested faster than they encode; the
// image that frees the slot then becomes the spare it refreshes. A new
// image is built only when there is no spare, so at most kMaxInFlight
// images ever exist (one fewer than when every request captured into a
// fresh image while two were in flight). Blocking stalls the engine
// thread, so it is counted (backpressure()), as is the capture time itself
// (capture_cost()).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace valkyrie::snapshot {

class Snapshotter {
 public:
  /// Receives the encoded snapshot bytes on the worker thread. Must be
  /// thread-safe with respect to the caller's world; the Snapshotter
  /// serializes its own invocations (one at a time, request order).
  using Sink = std::function<void(std::vector<std::uint8_t>)>;

  /// As Sink, plus the tag the producer passed to request(). The tag rides
  /// WITH the image through the queue, so a request that dies before
  /// reaching the sink (encode failure, parked and dropped) can never
  /// shift a later delivery onto the wrong tag — which a producer-side
  /// "pop the front on delivery" queue cannot guarantee.
  using TaggedSink =
      std::function<void(std::vector<std::uint8_t>, std::uint64_t)>;

  explicit Snapshotter(Sink sink);
  explicit Snapshotter(TaggedSink sink);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Captures the engine (epoch-consistent, synchronous) into the newest
  /// spare image and queues it for background encoding. Blocks, before
  /// capturing, while two images are already in flight. Throws what
  /// capture() throws (open epoch, unsupported workload) — nothing is
  /// queued on failure — and rethrows a parked encode/sink failure. `tag`
  /// is delivered to a TaggedSink alongside this image's bytes (ignored by
  /// a plain Sink).
  void request(const core::ValkyrieEngine& engine, std::uint64_t tag = 0);

  /// As above, with the scenario driver's section included.
  void request(const sim::ScenarioDriver& driver, std::uint64_t tag = 0);

  /// Blocks until every queued image has been encoded and delivered, and
  /// frees the spare images: a flushed Snapshotter holds no image, and the
  /// next request() captures from scratch. (A supervisor flushes before it
  /// rebuilds a world from a checkpoint, and the old world's spares could
  /// never serve the new one.) Rethrows here (or at the next request())
  /// anything the sink threw on the worker thread — e.g. file_sink's typed
  /// SerialError(kIo) — so disk failures surface on the engine thread
  /// instead of terminating the process.
  void flush();

  /// Snapshots delivered to the sink so far.
  [[nodiscard]] std::uint64_t completed() const;

  /// Producer-side backpressure: requests that found kMaxInFlight images
  /// already in flight and blocked until one finished, and the total time
  /// they spent blocked. Nonzero means encode + sink is slower than the
  /// request cadence and the engine thread is paying for it.
  struct Backpressure {
    std::uint64_t blocked_requests = 0;
    std::uint64_t wait_ns = 0;
  };
  [[nodiscard]] Backpressure backpressure() const;

  /// Engine-thread capture work: total time spent inside request()'s
  /// refresh, and the cold rows it reused from the spare image versus
  /// rebuilt from scratch (a new world, e.g. after a restore, rebuilds
  /// every row once).
  struct CaptureCost {
    std::uint64_t capture_ns = 0;
    std::uint64_t rows_reused = 0;
    std::uint64_t rows_rebuilt = 0;
  };
  [[nodiscard]] CaptureCost capture_cost() const;

  /// Non-blocking poll: returns (and clears) any parked encode/sink
  /// failure without waiting for the queue to drain. Lets a supervisor
  /// surface checkpoint failures at its next step instead of only at the
  /// next flush()/request() — nullptr when nothing is parked.
  [[nodiscard]] std::exception_ptr take_error();

 private:
  struct Pending {
    SnapshotImage image;
    std::uint64_t tag = 0;
  };

  /// Claims a queue slot, refreshes the newest spare image (or a new one)
  /// from `world` and queues it; World is an engine or a scenario driver.
  template <typename World>
  void capture_and_enqueue(const World& world, std::uint64_t tag);
  void worker_loop();

  TaggedSink sink_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // signals the worker: queue non-empty
  std::condition_variable space_cv_;  // signals producers: slot free / idle
  std::deque<Pending> queue_;  // + encoding_ + claimed_ <= kMaxInFlight
  std::exception_ptr error_;          // sink/encode failure awaiting rethrow
  std::uint64_t completed_ = 0;
  Backpressure backpressure_;
  CaptureCost capture_cost_;
  // Images the worker has finished with, oldest first; request() takes the
  // newest.
  std::vector<SnapshotImage> spares_;
  std::size_t claimed_ = 0;  // slots held by requests still capturing
  bool encoding_ = false;  // worker is between pop and sink delivery
  bool stop_ = false;
  std::thread worker_;

  static constexpr std::size_t kMaxInFlight = 2;
};

/// Convenience sink that atomically replaces `path` with each snapshot
/// (write to `path`.tmp, then rename) — a crash mid-write leaves the
/// previous snapshot intact, which is the whole point of taking one.
[[nodiscard]] Snapshotter::Sink file_sink(std::string path);

}  // namespace valkyrie::snapshot
