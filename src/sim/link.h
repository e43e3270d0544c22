// Point-to-point full-duplex link with bandwidth, propagation delay, and a
// drop-tail output queue per direction.
//
// Failure model: a link can be taken down bidirectionally (`set_up`) or per
// direction (`set_direction_up`), emulating both cable pulls and one-way
// failures. Frames in flight when the link fails are lost. Devices are
// notified of carrier changes; whether they *act* on carrier is up to them
// (PortLand detects failures via LDP timeouts by default).
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "common/units.h"
#include "sim/device.h"
#include "sim/frame.h"
#include "sim/ring.h"
#include "sim/train.h"

namespace portland::sim {

class Link;

/// Observation hook invoked for every frame the moment it is delivered to
/// a receiving device (after loss/failure filtering): `rx_side` is the
/// receiving endpoint's side of the link. Installed network-wide via
/// Network::set_frame_tap. It is the soaks' independent delivery trace:
/// the only observer that sees every link delivery (LDP included), and
/// one that bypasses the flight recorder and the convergence monitor, so
/// the soaks can use it to prove those two invisible to execution.
using FrameTap = std::function<void(const Link&, int rx_side,
                                    const FramePtr&)>;

class Link : public DataEventOwner {
 public:
  struct Config {
    /// Link speed in bits per second. Default 1 Gb/s, as in the testbed.
    double bandwidth_bps = 1e9;
    /// One-way propagation delay.
    SimDuration propagation = micros(1);
    /// Per-direction output queue capacity in bytes (drop-tail).
    std::size_t queue_capacity_bytes = 256 * 1024;
  };

  Link(Simulator& sim, Device& a, PortId port_a, Device& b, PortId port_b,
       Config config, const FrameTap* tap = nullptr);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Called by Device::send. `from_side` is 0 (a->b) or 1 (b->a).
  void transmit(int from_side, const FramePtr& frame);

  /// Takes both directions up/down and notifies both endpoint devices.
  void set_up(bool up);

  /// Takes one direction up/down (unidirectional failure). `from_side`
  /// identifies the transmitting side of the affected direction.
  void set_direction_up(int from_side, bool up);

  [[nodiscard]] bool is_up() const { return dir_[0].up && dir_[1].up; }
  [[nodiscard]] bool direction_up(int from_side) const {
    return dir_[side_index(from_side)].up;
  }

  [[nodiscard]] Device& device(int side) const {
    return side == 0 ? *end_[0].device : *end_[1].device;
  }
  [[nodiscard]] PortId port(int side) const { return end_[side_index(side)].port; }

  /// The device on the opposite side from `side`.
  [[nodiscard]] Device& peer_of(int side) const { return device(1 - side); }

  [[nodiscard]] const Config& config() const { return config_; }

  /// Changes the one-way propagation delay (e.g. modeling longer cable
  /// runs). Applies to frames transmitted after the call.
  void set_propagation(SimDuration propagation) {
    config_.propagation = propagation;
  }

  [[nodiscard]] std::uint64_t tx_frames(int from_side) const {
    return dir_[side_index(from_side)].tx_frames;
  }
  [[nodiscard]] std::uint64_t tx_bytes(int from_side) const {
    return dir_[side_index(from_side)].tx_bytes;
  }
  [[nodiscard]] std::uint64_t dropped_frames(int from_side) const {
    return dir_[side_index(from_side)].dropped;
  }

  /// Queue occupancy of one direction settled to the current sim time
  /// (metrics snapshots; quiescent use only — settling mutates the lazy
  /// drain bookkeeping).
  [[nodiscard]] std::size_t queued_bytes_now(int from_side) {
    Direction& dir = dir_[side_index(from_side)];
    dir.snap_clean = false;  // settling mutates the drain bookkeeping
    dir.settle(sim_->now());
    return dir.queued_bytes;
  }

  /// True when both of this direction's rings (the train and the drain
  /// log) run past the end of their buffers: lets tests pin snapshot
  /// state that is not laid out from index 0.
  [[nodiscard]] bool rings_wrap(int from_side) const {
    return train_[side_index(from_side)].entries.wraps() &&
           dir_[side_index(from_side)].drains.wraps();
  }

  /// Delivers one frame that was transmitted from `from_side` while the
  /// direction's failure epoch was `epoch`: drops it if the direction has
  /// since failed, else counts it at the receiver, shows it to the frame
  /// tap, and hands it to the receiving device. The engine calls this for
  /// every train entry with the receiving shard's clock already at the
  /// entry's arrival time.
  void deliver(int from_side, std::uint64_t epoch, const FramePtr& frame);

  /// Per-frame fallback for an arrival a train declined (it would have
  /// broken the train's time order, e.g. after set_propagation shrank the
  /// delay with frames in flight), dispatched as a serializable data
  /// event: kind = transmitting side, arg = the direction's failure epoch
  /// at transmit time. Calls deliver().
  void execute_data_event(std::uint32_t kind, std::uint64_t arg,
                          const FramePtr& frame,
                          const FrameBytes& bytes) override;

  /// Checkpoint: per-direction transmitter state (up/busy/queue/epoch/
  /// counters, un-settled drains) plus the in-flight train entries. The
  /// restore re-anchors non-empty trains in the receiver's shard queue at
  /// their exact saved (time, seq).
  ///
  /// The section is content-addressed: an idle link being re-forked from
  /// the image it already matches (no mutation since the last restore)
  /// skips its section wholesale instead of re-parsing it.
  void save_state(SnapshotWriter& w);
  void restore_state(SnapshotReader& r);

 private:
  struct Endpoint {
    Device* device;
    PortId port;
  };
  struct Direction {
    bool up = true;
    /// True while this direction is bit-identical to the section the link
    /// last restored (see snap_hash_). Per direction, not per link: only
    /// the transmitting side's shard mutates a direction, so the two
    /// sides of a cross-shard link never write the same flag in one
    /// window.
    bool snap_clean = false;
    SimTime busy_until = 0;       // when the transmitter becomes idle
    std::size_t queued_bytes = 0; // bytes admitted but not yet serialized
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t dropped = 0;
    std::uint64_t epoch = 0;      // bumped on failure to void in-flight frames

    /// Queue-occupancy accounting is drained lazily: each admitted frame
    /// records when its serialization completes, and the next transmit()
    /// settles everything already serialized before the drop-tail check.
    /// `queued_bytes` is only ever read there, so this is equivalent to
    /// the eager version but costs zero simulator events. The ring holds
    /// only the frames still serializing, so its capacity follows the
    /// queue's peak depth, and a drained ring hands a large buffer back
    /// to the pool (sim/ring.h).
    struct PendingDrain {
      SimTime done;
      std::uint32_t bytes;
    };
    Ring<PendingDrain> drains;

    void settle(SimTime now) {
      while (!drains.empty() && drains.front().done <= now) {
        queued_bytes -= drains.front().bytes;
        drains.pop_front();
      }
    }
  };

  static std::size_t side_index(int side);
  [[nodiscard]] SimDuration serialization_time(std::size_t bytes) const;

  Simulator* sim_;
  Config config_;
  const FrameTap* tap_;  // owned by the Network; may point at an empty fn
  std::array<Endpoint, 2> end_;
  std::array<Direction, 2> dir_;
  /// One train per direction: the batched in-flight frames a->b and b->a.
  std::array<Train, 2> train_;

  /// Hash of the section this link last restored. The link is still
  /// bit-identical to it while both directions' snap_clean hold: every
  /// mutation path clears its direction's flag, and restore only sets
  /// them when the restored trains are empty, because snapshot_clear
  /// wipes anchored trains behind the link's back.
  std::uint64_t snap_hash_ = 0;
};

}  // namespace portland::sim
