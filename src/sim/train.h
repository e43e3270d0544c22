// Trains: batched back-to-back frame deliveries on one link direction.
//
// At line rate a link direction carries long runs of frames whose arrival
// times are strictly increasing (serialization on the transmitter orders
// them), so one scheduler event per frame hop would have the scheduler
// popping, dispatching, and re-inserting thousands of near-identical
// events. A Train collapses such a run into one scheduler node: its ring
// (sim/ring.h) holds one entry per frame, each stamped with the exact
// (time, seq) a single-frame event would have been given, and the node
// sits in the queue at the *front* entry's (time, seq). Dispatch walks
// the ring, delivering every entry that is strictly earlier than both the
// shard's next queued event and the current execution bound; the moment
// an entry ties or trails another event — or crosses a window boundary —
// the node is re-pushed at that entry's own (time, seq) and ordinary
// scheduling resumes. Because every entry carries its own sequence
// number, batching leaves the dispatch order exactly that of one event
// per frame.
//
// The engine alone decides, for every arrival, between a train append and
// a data event (Simulator::post). An arrival that is not strictly later
// than the train's last entry would break the ring's time order, so the
// train declines it and it is scheduled on its own as a Link data event
// (Link::execute_data_event). Two things cause a decline:
//   * the link's propagation delay shrank while frames were in flight
//     (Link::set_propagation), so a new frame arrives before older ones;
//   * a direction failed and came back up while its void frames were
//     still queued in the train: the failure resets the transmit queue,
//     so frames sent after the re-up can arrive before the void tail
//     (which is still dispatched, then dropped on its stale epoch).
// Neither happens on a steady fabric: none of the four perfbench
// workloads (seed 1, --seconds 3) declined a single arrival when counted.
//
// A Train belongs to one link direction and is delivered through its
// owning Link (Link::deliver) rather than a per-frame closure, so a train
// of N frames costs one scheduler insert, one pop, and zero SmallFn
// constructions instead of N of each.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "sim/frame.h"
#include "sim/ring.h"

namespace portland::sim {

class Link;

/// One pending frame delivery inside a train. `seq` is the owning
/// shard's sequence number, consumed at append exactly where a
/// single-frame event would have consumed it. `epoch` snapshots the link
/// direction's failure epoch at transmit time: a mismatch at delivery
/// means the direction failed while the frame was in flight, and it is
/// lost.
struct TrainEntry {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;
  FramePtr frame;
};

/// A batch of in-flight frames on one link direction: `owner`'s frames
/// transmitted from `from_side`. Entries are kept in strictly increasing
/// arrival-time order (appends that would violate it fall back to a
/// per-frame data event). `scheduled` is true while exactly one scheduler
/// node references this train — always at the front entry's (time, seq).
struct Train {
  Link* owner = nullptr;
  int from_side = 0;
  bool scheduled = false;
  Ring<TrainEntry> entries;
};

}  // namespace portland::sim
