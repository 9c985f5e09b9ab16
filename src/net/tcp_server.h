// TCP front-end over serve::Engine: the wire for the multi-model serving
// stack. One TcpServer owns a listener plus a multi-threaded accept/IO
// loop — an accept thread spawns a reader and a writer thread per
// connection — speaking the length-prefixed binary protocol of
// net/protocol.h (submit/cancel/stats verbs, per-connection request ids,
// out-of-order completion). See docs/NETWORKING.md.
//
//   client ──frames──▶ Session reader ──Engine::submit(model, in)──▶ slot
//                          │    PendingResult::on_ready(callback)     │
//   client ◀──frames── Session writer ◀──bounded write queue ◀────────┘
//
// Completions are ASYNCHRONOUS: no thread blocks per request. The reader
// registers an on_ready callback holding a weak_ptr to the session; when
// the request resolves, the callback encodes the result (or its typed
// error frame) and delivers it to the owning connection. A session that
// died first simply fails the weak_ptr lock and the response is counted
// dropped — never a touch of freed session state (the contract pinned by
// serve_test and the chaos suite).
//
// At light load a request never leaves its session thread: Engine::submit
// runs an idle slot's request on the reader (serve/batcher.h), the
// callback fires there, and the reader sends the frame with a non-blocking
// send when nothing is queued ahead of it. The writer thread is the
// back-pressure fallback: it sends what a full socket buffer did not take,
// every frame that arrives while another is on the socket, and every frame
// delivered by another thread (a scheduler resolving a batch under load).
//
// Backpressure composes with PR 5 admission control in two layers:
//   - shed-before-parse: when Engine::overloaded(model) says the slot's
//     bounded queue is at depth, the reader classifies the submit frame by
//     its model-id prefix alone and answers kOverloaded without ever
//     deserializing tokens, validating, or taking the queue mutex.
//   - bounded write queues: a connection may buffer at most
//     max_write_queue_bytes of undelivered responses; a slow reader that
//     lets the bound overflow is evicted (queue cleared, socket shut down)
//     rather than allowed to wedge memory or a writer thread.
//
// Error taxonomy on the wire mirrors the in-process one 1:1 — see
// net::ErrorCode. Header-level corruption (bad magic/version/oversized
// payload) loses framing and closes the connection; payload-level
// corruption keeps framing and answers a typed kError frame.
//
// Observability: nnlut_net_* counter families (labeled listen="<port>")
// hang off the engine's metrics registry and deregister on stop();
// net.accept / net.read_frame / net.write_frame spans join the PR 8
// lifecycle trace, correlated by request id with the req.* spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"
#include "net/protocol.h"
#include "serve/engine.h"

namespace nnlut::net {

struct TcpServerConfig {
  /// Listen address; loopback by default (tests, single-host deployments).
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read it back with port().
  std::uint16_t port = 0;
  int backlog = 64;
  /// Reject any frame whose header claims a larger payload (kFrameTooLarge,
  /// then disconnect) — enforced before allocating or reading the payload.
  std::size_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Per-connection bound on buffered undelivered response bytes; at the
  /// bound the connection is evicted as a slow reader.
  std::size_t max_write_queue_bytes = std::size_t{4} << 20;
};

/// Monotonic counters of one server's lifetime, readable while serving.
/// Reconciliation identity (exact once the engine has drained and every
/// session is closed — asserted by the chaos suite):
///   submits_forwarded == completions_enqueued + responses_dropped
/// Pre-parse sheds, protocol errors, cancels and stats answer inline and
/// are counted separately; they never enter the in-flight map.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t frames_read = 0;
  std::uint64_t frames_written = 0;
  /// Submit frames that reached Engine::submit (each resolves through the
  /// on_ready callback exactly once).
  std::uint64_t submits_forwarded = 0;
  /// Responses (results or typed errors) placed on a write queue.
  std::uint64_t completions_enqueued = 0;
  /// Completions whose session was gone or already closing — the request
  /// itself still resolved and reconciled in the slot's ledger.
  std::uint64_t responses_dropped = 0;
  /// Submits answered kOverloaded from the model-id prefix alone.
  std::uint64_t sheds_preparse = 0;
  /// Malformed headers/payloads and misused verbs.
  std::uint64_t protocol_errors = 0;
  /// Connections evicted at the write-queue bound.
  std::uint64_t slow_reader_evictions = 0;
  /// Cancel verbs processed (acked true or false).
  std::uint64_t cancels = 0;
};

class TcpServer {
 public:
  /// Binds, listens and starts the accept loop. `engine` must outlive the
  /// server. Throws std::system_error when the address/port cannot be
  /// bound.
  explicit TcpServer(serve::Engine& engine, TcpServerConfig cfg = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The bound port (the ephemeral one the kernel picked when cfg.port
  /// was 0).
  std::uint16_t port() const { return port_; }

  NetStats stats() const;
  /// Sessions currently alive (accepted, not yet fully torn down).
  std::size_t open_connections() const;

  /// Close the listener, evict every live connection, join all threads,
  /// and deregister the nnlut_net_* metric series. Idempotent; the
  /// destructor calls it. In-flight engine requests keep resolving — their
  /// completions count as responses_dropped.
  void stop();

 private:
  struct Counters;
  class Session;

  void accept_main();
  void reap_finished();
  /// Hang the nnlut_net_* families on the engine's metrics registry
  /// (deregistered on stop()).
  void register_net_metrics();

  serve::Engine& engine_;
  const TcpServerConfig cfg_;
  std::shared_ptr<Counters> counters_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string port_label_;  // listen="<port>" label value for deregistration
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::uint64_t next_conn_id_ = 0;  // accept thread only
  mutable Mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_
      NNLUT_GUARDED_BY(sessions_mu_);
  std::thread accept_thread_;  // last: joined before members go away
};

}  // namespace nnlut::net
