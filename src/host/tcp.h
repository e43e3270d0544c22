// TCP-lite: a compact but behaviorally faithful TCP implementation used by
// the convergence and VM-migration experiments.
//
// Implemented: three-way handshake, cumulative ACKs, byte-accurate sliding
// window, slow start and congestion avoidance, fast retransmit on three
// duplicate ACKs, RTT estimation (RFC 6298) with RTO_min = 200 ms and
// exponential backoff, FIN teardown, and payload integrity checking (each
// payload byte is a deterministic function of its sequence number, so the
// receiver verifies content without a retransmission buffer).
//
// Not implemented (not needed for the paper's experiments): window
// scaling, SACK, delayed ACKs, Nagle, TIME_WAIT, simultaneous open.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "common/ipv4_address.h"
#include "common/units.h"
#include "net/tcp.h"
#include "sim/simulator.h"

namespace portland::host {

struct TcpConfig {
  std::uint32_t mss = 1400;
  std::uint32_t initial_cwnd_segments = 10;  // RFC 6928 IW10
  std::uint16_t advertised_window = 65535;
  SimDuration rto_min = millis(200);
  SimDuration rto_max = seconds(60);
  SimDuration initial_rto = seconds(1);
  int max_syn_retries = 8;
};

/// Endpoint identity of one connection (local port, remote ip:port).
struct TcpEndpointKey {
  Ipv4Address remote_ip;
  std::uint16_t remote_port = 0;
  std::uint16_t local_port = 0;

  friend bool operator==(const TcpEndpointKey&, const TcpEndpointKey&) = default;
  friend bool operator<(const TcpEndpointKey& a, const TcpEndpointKey& b) {
    if (a.remote_ip != b.remote_ip) return a.remote_ip < b.remote_ip;
    if (a.remote_port != b.remote_port) return a.remote_port < b.remote_port;
    return a.local_port < b.local_port;
  }
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinSent,
    kFinished,
  };

  /// Emits one segment toward the peer. Parameters: header (ports filled
  /// in), payload bytes.
  using SegmentSink =
      std::function<void(const net::TcpHeader&, std::span<const std::uint8_t>)>;

  TcpConnection(sim::Simulator& sim, TcpEndpointKey key, TcpConfig config,
                SegmentSink sink, std::uint32_t isn);

  /// Active open (client side).
  void connect();

  /// Passive open: adopt an incoming SYN (listener side).
  void accept_syn(const net::TcpHeader& syn);

  /// Appends `bytes` of application data to the send stream. Data content
  /// is synthesized from sequence numbers; the app supplies only a length.
  void send(std::uint64_t bytes);

  /// Half-closes after all queued data is delivered.
  void close();

  /// Host calls this for every inbound segment matching this connection.
  void handle_segment(const net::TcpHeader& h,
                      std::span<const std::uint8_t> payload);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  [[nodiscard]] const TcpEndpointKey& key() const { return key_; }

  /// Sender-side counters.
  [[nodiscard]] std::uint64_t bytes_acked() const { return bytes_acked_; }
  [[nodiscard]] std::uint64_t segments_sent() const { return segments_sent_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::uint32_t cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] SimDuration current_rto() const { return rto_; }
  [[nodiscard]] double smoothed_rtt_ms() const {
    return to_millis(static_cast<SimDuration>(srtt_));
  }

  /// Receiver-side counters.
  [[nodiscard]] std::uint64_t bytes_delivered() const {
    return bytes_delivered_;
  }
  [[nodiscard]] bool payload_corruption_seen() const {
    return payload_corruption_;
  }
  /// Segments that arrived ahead of the cumulative point (reordering or
  /// loss); the E11 ECMP ablation compares this across modes.
  [[nodiscard]] std::uint64_t out_of_order_segments() const {
    return ooo_segments_;
  }

  /// Invoked whenever bytes_delivered() grows (receiver side).
  void set_deliver_callback(std::function<void(std::uint64_t total)> cb) {
    deliver_cb_ = std::move(cb);
  }
  /// Invoked once when the peer's FIN is delivered in order.
  void set_finished_callback(std::function<void()> cb) {
    finished_cb_ = std::move(cb);
  }

  /// The deterministic payload byte for absolute stream offset `offset`.
  [[nodiscard]] static std::uint8_t payload_byte(std::uint64_t offset) {
    return static_cast<std::uint8_t>((offset * 131) ^ (offset >> 7));
  }

  /// Checkpoint: full protocol state (send/receive windows, congestion
  /// control, RTT estimator, out-of-order store, pending RTO timer). The
  /// segment sink and app callbacks are construction wiring and survive
  /// in-place; a fresh-process restore re-creates the sink but app
  /// callbacks must be re-installed by the application.
  void snapshot(sim::SnapshotIo& io);

 private:
  void send_segment(std::uint32_t seq_wire, std::uint32_t len, bool fin,
                    bool syn, bool is_retransmission);
  void send_ack();
  void pump();                 // transmit while window allows
  void arm_rto();
  void on_rto();
  void on_ack(const net::TcpHeader& h);
  void deliver_in_order(std::uint32_t seq_wire,
                        std::span<const std::uint8_t> payload, bool fin);
  void enter_established();
  [[nodiscard]] std::uint32_t flight_size() const;
  [[nodiscard]] std::uint64_t offset_of(std::uint32_t seq_wire) const;
  void update_rtt(SimDuration sample);

  sim::Simulator* sim_;
  TcpEndpointKey key_;
  TcpConfig config_;
  SegmentSink sink_;

  State state_ = State::kClosed;

  // --- send side (all "wire" values are u32 sequence space) ---
  std::uint32_t isn_ = 0;
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t snd_max_ = 0;       // highest sequence ever sent: ACKs up
                                    // to here stay valid across go-back-N
  std::uint64_t stream_len_ = 0;    // total app bytes requested
  std::uint64_t snd_offset_base_ = 0;  // u64 offset corresponding to snd_una_
  bool fin_queued_ = false;
  bool fin_sent_ = false;           // FIN currently outstanding/acked
  bool fin_ever_sent_ = false;
  std::uint32_t fin_wire_seq_ = 0;  // sequence number the FIN occupies
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  std::uint16_t peer_window_ = 65535;
  int dup_acks_ = 0;
  bool in_recovery_ = false;        // NewReno fast-recovery episode
  std::uint32_t recovery_point_ = 0;  // snd_nxt_ at loss detection
  SimDuration rto_;
  int backoff_ = 0;
  double srtt_ = 0;
  double rttvar_ = 0;
  bool rtt_valid_ = false;
  std::uint32_t timed_seq_ = 0;
  SimTime timed_sent_at_ = -1;
  sim::Timer rto_timer_;
  int syn_retries_ = 0;

  // --- receive side ---
  std::uint32_t irs_ = 0;      // initial receive seq
  std::uint32_t rcv_nxt_ = 0;
  bool peer_fin_seen_ = false;
  std::uint32_t peer_fin_seq_ = 0;
  // Out-of-order store: wire seq -> payload copy.
  std::map<std::uint32_t, std::vector<std::uint8_t>> ooo_;

  // --- counters ---
  std::uint64_t bytes_acked_ = 0;
  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t ooo_segments_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  bool payload_corruption_ = false;

  std::function<void(std::uint64_t)> deliver_cb_;
  std::function<void()> finished_cb_;
};

}  // namespace portland::host
