#include "net/tcp_server.h"

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <exception>
#include <string_view>
#include <utility>

#include "net/socket_io.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace nnlut::net {

/// Lifetime note: counters live in a shared_ptr held by the server, every
/// session, every on_ready callback, and the metric callbacks until
/// deregistration — so a completion that outlives its session (or the whole
/// server teardown racing a scheduler thread) still has somewhere safe to
/// count itself.
struct TcpServer::Counters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_closed{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> frames_read{0};
  std::atomic<std::uint64_t> frames_written{0};
  std::atomic<std::uint64_t> submits_forwarded{0};
  std::atomic<std::uint64_t> completions_enqueued{0};
  std::atomic<std::uint64_t> responses_dropped{0};
  std::atomic<std::uint64_t> sheds_preparse{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> slow_reader_evictions{0};
  std::atomic<std::uint64_t> cancels{0};
};

namespace {

// The session whose reader loop runs on this thread, if any. A reader
// sends its own frames inline; frames delivered by any other thread (a
// slot scheduler resolving a batch under load, say) go to the session's
// writer, so those threads never spend their time on this session's
// socket.
thread_local const void* t_reader_of = nullptr;

std::uint64_t frame_request_id(const std::vector<std::uint8_t>& frame) {
  // Bytes 12..19 of the header, little-endian (see net/protocol.h).
  std::uint64_t id = 0;
  for (int i = 7; i >= 0; --i)
    id = (id << 8) | frame[12 + static_cast<std::size_t>(i)];
  return id;
}

}  // namespace

/// One accepted connection: an owning fd, a reader thread (frame loop +
/// dispatch), a writer thread draining the bounded response queue, and the
/// in-flight map from client request id to PendingResult. Sessions are
/// shared_ptr-owned; completion callbacks hold only a weak_ptr, so a dead
/// session is observed as an expired weak_ptr, never as freed memory.
class TcpServer::Session : public std::enable_shared_from_this<Session> {
 public:
  static std::shared_ptr<Session> spawn(int fd, std::uint64_t conn_id,
                                        serve::Engine& engine,
                                        const TcpServerConfig& cfg,
                                        std::shared_ptr<Counters> counters) {
    auto s = std::shared_ptr<Session>(
        new Session(fd, conn_id, engine, cfg, std::move(counters)));
    s->reader_ = std::thread([s] { s->reader_main(); });
    return s;
  }

  ~Session() { close_fd(fd_); }

  /// Server-side teardown: wake both threads and shut the socket down. The
  /// reader observes the failed recv and runs its normal exit path.
  void close() {
    {
      MutexLock lk(mu_);
      closing_ = true;
    }
    wcv_.notify_all();
    shutdown_fd(fd_);
  }

  /// Join the reader (which joins the writer itself). Only after
  /// finished() or close().
  void join() {
    if (reader_.joinable()) reader_.join();
  }

  bool finished() const { return finished_.load(std::memory_order_acquire); }

  /// Resolve-side entry: called by the on_ready callback on whatever thread
  /// resolved the request (this session's reader when it ran the request
  /// itself, a batch cycle's thread, a canceller, an evicting submitter).
  /// Pops the in-flight entry, maps the outcome onto a kResult/kError frame
  /// and enqueues it toward the client.
  void complete(std::uint64_t request_id) {
    serve::PendingResult pending;
    {
      MutexLock lk(mu_);
      auto it = inflight_.find(request_id);
      if (it == inflight_.end()) {
        // Reader teardown already abandoned the in-flight map.
        counters_->responses_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      pending = std::move(it->second);
      inflight_.erase(it);
    }
    std::vector<std::uint8_t> payload;
    FrameType type = FrameType::kResult;
    // The request is done (on_ready fired), so get() cannot block; it
    // either yields the logits or rethrows the request's error, which maps
    // 1:1 onto the wire taxonomy. Order matters only for documentation —
    // these types don't derive from one another.
    try {
      const Tensor logits = pending.get();
      encode_result(logits, payload);
    } catch (const serve::ServerOverloaded& e) {
      type = FrameType::kError;
      encode_error({ErrorCode::kOverloaded, e.what()}, payload);
    } catch (const serve::RequestCancelled& e) {
      type = FrameType::kError;
      encode_error({ErrorCode::kCancelled, e.what()}, payload);
    } catch (const std::invalid_argument& e) {
      type = FrameType::kError;
      encode_error({ErrorCode::kInvalidArgument, e.what()}, payload);
    } catch (const std::out_of_range& e) {
      type = FrameType::kError;
      encode_error({ErrorCode::kOutOfRange, e.what()}, payload);
    } catch (const std::exception& e) {
      type = FrameType::kError;
      encode_error({ErrorCode::kInternal, e.what()}, payload);
    }
    if (!enqueue(make_frame(type, request_id, payload),
                 &counters_->completions_enqueued))
      counters_->responses_dropped.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  Session(int fd, std::uint64_t conn_id, serve::Engine& engine,
          const TcpServerConfig& cfg, std::shared_ptr<Counters> counters)
      : fd_(fd), conn_id_(conn_id), engine_(engine), cfg_(cfg),
        counters_(std::move(counters)) {
    set_nodelay(fd_);
  }

  void reader_main() {
    {
      char name[16];
      std::snprintf(name, sizeof name, "nn-r-%llu",
                    static_cast<unsigned long long>(conn_id_));
      runtime::set_current_thread_name(name);
    }
    t_reader_of = this;
    auto self = shared_from_this();
    writer_ = std::thread([self] { self->writer_main(); });

    std::uint8_t hdr[kHeaderSize];
    std::vector<std::uint8_t> payload;
    for (;;) {
      if (recv_all(fd_, hdr, kHeaderSize) != RecvStatus::kOk) break;
      FrameHeader h;
      const HeaderStatus hs = decode_header(hdr, h);
      if (hs != HeaderStatus::kOk) {
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        // Framing is lost: disconnect. Bad magic gets no reply at all (the
        // peer is not speaking this protocol); the rest get a parting
        // error frame that may or may not flush before the close.
        if (hs != HeaderStatus::kBadMagic)
          send_protocol_error(h.request_id, ErrorCode::kMalformedFrame,
                              "malformed frame header");
        break;
      }
      if (h.payload_len > cfg_.max_payload_bytes) {
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_protocol_error(h.request_id, ErrorCode::kFrameTooLarge,
                            "payload length over server bound");
        break;  // the claimed payload is never read (nor allocated)
      }
      {
        obs::ScopedSpan span("net.read_frame", h.request_id);
        payload.resize(h.payload_len);
        if (h.payload_len > 0 &&
            recv_all(fd_, payload.data(), payload.size()) != RecvStatus::kOk)
          break;  // truncated frame (half-written then RST): disconnect
        counters_->frames_read.fetch_add(1, std::memory_order_relaxed);
        counters_->bytes_read.fetch_add(kHeaderSize + payload.size(),
                                        std::memory_order_relaxed);
        dispatch(h, payload);
      }
    }

    // Teardown: wake the writer and abandon the in-flight map. Outstanding
    // engine requests keep executing; their on_ready callbacks will find
    // the id gone (or the enqueue refused) and count responses_dropped.
    {
      MutexLock lk(mu_);
      closing_ = true;
      inflight_.clear();
    }
    wcv_.notify_all();
    writer_.join();
    // The writer has flushed (or dropped) everything it ever will; push the
    // FIN out NOW rather than when the server reaps this session, so a
    // peer blocked on a read sees EOF promptly after a server-initiated
    // disconnect.
    shutdown_fd(fd_);
    counters_->connections_closed.fetch_add(1, std::memory_order_relaxed);
    finished_.store(true, std::memory_order_release);
  }

  void writer_main() {
    {
      char name[16];
      std::snprintf(name, sizeof name, "nn-w-%llu",
                    static_cast<unsigned long long>(conn_id_));
      runtime::set_current_thread_name(name);
    }
    bool on_socket = false;  // this thread holds sending_
    for (;;) {
      std::vector<std::uint8_t> frame;
      std::size_t from = 0;
      {
        UniqueLock lk(mu_);
        if (on_socket) sending_ = false;
        // Never while another send is on the socket: frames must not
        // interleave, and a short inline send queues its tail in front.
        while (sending_ || (writeq_.empty() && !closing_)) wcv_.wait(lk);
        if (writeq_.empty()) break;  // closing, nothing left to flush
        frame = std::move(writeq_.front());
        writeq_.pop_front();
        from = front_sent_;
        front_sent_ = 0;
        writeq_bytes_ -= frame.size() - from;
        sending_ = true;
        on_socket = true;
      }
      obs::ScopedSpan span("net.write_frame", frame_request_id(frame));
      if (!send_all(fd_, frame.data() + from, frame.size() - from)) {
        peer_gone();
        break;
      }
      counters_->frames_written.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_written.fetch_add(frame.size() - from,
                                         std::memory_order_relaxed);
    }
  }

  /// Peer gone mid-write: stop delivering, drop whatever is queued. Called
  /// by the thread holding sending_, which it releases.
  void peer_gone() {
    {
      MutexLock lk(mu_);
      sending_ = false;
      closing_ = true;
      writeq_.clear();
      writeq_bytes_ = 0;
      front_sent_ = 0;
    }
    wcv_.notify_all();
    shutdown_fd(fd_);
  }

  /// The inline half of enqueue(): the reader claimed sending_ with the
  /// queue empty, so `frame` goes straight onto the socket without a
  /// writer wake-up. The send never blocks: what the socket buffer does
  /// not take now is handed to the writer thread as the front of the
  /// queue, so a slow reader still costs no thread but its writer.
  void send_inline(std::vector<std::uint8_t> frame) {
    obs::ScopedSpan span("net.write_frame", frame_request_id(frame));
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        peer_gone();
        return;
      }
    }
    counters_->bytes_written.fetch_add(sent, std::memory_order_relaxed);
    const bool whole = sent == frame.size();
    if (whole) counters_->frames_written.fetch_add(1, std::memory_order_relaxed);
    bool wake = false;
    {
      MutexLock lk(mu_);
      sending_ = false;
      if (!whole) {
        writeq_bytes_ += frame.size() - sent;
        front_sent_ = sent;
        writeq_.push_front(std::move(frame));
      }
      // Wake the writer only if it has work: a tail or frames queued
      // meanwhile, or a close it waited out behind this send.
      wake = !writeq_.empty() || closing_;
    }
    if (wake) wcv_.notify_all();
  }

  void dispatch(const FrameHeader& h, std::span<const std::uint8_t> payload) {
    switch (h.type) {
      case FrameType::kSubmit:
        handle_submit(h.request_id, payload);
        return;
      case FrameType::kCancel:
        handle_cancel(h.request_id, payload);
        return;
      case FrameType::kStats: {
        if (!payload.empty()) {
          counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
          send_protocol_error(h.request_id, ErrorCode::kMalformedFrame,
                              "stats frame carries a payload");
          return;
        }
        std::vector<std::uint8_t> body;
        encode_text(engine_.scrape(), body);
        enqueue(make_frame(FrameType::kStatsResult, h.request_id, body));
        return;
      }
      default: {
        // A server-bound direction violation (client sent kResult & co).
        counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        send_protocol_error(h.request_id, ErrorCode::kMalformedFrame,
                            "server-bound frame type");
        return;
      }
    }
  }

  void handle_submit(std::uint64_t request_id,
                     std::span<const std::uint8_t> payload) {
    bool duplicate = false;
    {
      MutexLock lk(mu_);
      duplicate = inflight_.count(request_id) != 0;
    }
    // Answered outside mu_: the error path re-enters enqueue(), which takes
    // the same (non-recursive) mutex.
    if (duplicate) {
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_protocol_error(request_id, ErrorCode::kMalformedFrame,
                          "request id already in flight");
      return;
    }
    // Shed before parse: classify the frame by its model-id prefix alone.
    // Under overload the server's cost per refused request is two header
    // fields and a queue-depth read — tokens are never deserialized,
    // validation never runs, the queue mutex is never taken.
    try {
      const std::string_view model = peek_submit_model(payload);
      if (engine_.overloaded(model)) {
        counters_->sheds_preparse.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::uint8_t> body;
        encode_error({ErrorCode::kOverloaded,
                      "net: slot queue at depth bound (shed before parse)"},
                     body);
        enqueue(make_frame(FrameType::kError, request_id, body));
        return;
      }
    } catch (const ProtocolError& e) {
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_protocol_error(request_id, ErrorCode::kMalformedFrame, e.what());
      return;
    }
    SubmitFrame frame;
    try {
      frame = decode_submit(payload);
    } catch (const ProtocolError& e) {
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_protocol_error(request_id, ErrorCode::kMalformedFrame, e.what());
      return;
    }
    serve::PendingResult pending =
        engine_.submit(frame.model_id, std::move(frame.input));
    counters_->submits_forwarded.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lk(mu_);
      inflight_.emplace(request_id, pending);
    }
    // May fire immediately (validation rejects resolve synchronously) — on
    // this thread, after the map insert above, so complete() always finds
    // its entry. The callback holds the session only weakly: a session torn
    // down before the request resolves is an expired weak_ptr, and the
    // completion counts as dropped instead of touching freed state.
    pending.on_ready(
        [weak = weak_from_this(), counters = counters_, request_id] {
          if (auto session = weak.lock()) {
            session->complete(request_id);
          } else {
            counters->responses_dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
          }
        });
  }

  void handle_cancel(std::uint64_t request_id,
                     std::span<const std::uint8_t> payload) {
    if (!payload.empty()) {
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      send_protocol_error(request_id, ErrorCode::kMalformedFrame,
                          "cancel frame carries a payload");
      return;
    }
    serve::PendingResult pending;
    {
      MutexLock lk(mu_);
      auto it = inflight_.find(request_id);
      if (it != inflight_.end()) pending = it->second;  // copy shares state
    }
    // cancel() outside mu_: a successful cancel resolves the request and
    // runs the on_ready callback synchronously on THIS thread, which
    // re-enters complete() and takes mu_ itself. The client then sees two
    // frames: the ack below and the submit's kError(kCancelled) completion.
    const bool cancelled = pending.valid() && pending.cancel();
    counters_->cancels.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> body;
    encode_cancel_ack(cancelled, body);
    enqueue(make_frame(FrameType::kCancelAck, request_id, body));
  }

  void send_protocol_error(std::uint64_t request_id, ErrorCode code,
                           const char* msg) {
    std::vector<std::uint8_t> body;
    encode_error({code, msg}, body);
    enqueue(make_frame(FrameType::kError, request_id, body));
  }

  /// Deliver a frame toward the client. False (frame dropped) when the
  /// session is closing or the write-queue bound overflowed — the latter
  /// evicts the connection: a reader that cannot keep up with its
  /// responses gets disconnected rather than an unbounded buffer or a
  /// wedged writer. The bound is checked first, whichever way the frame
  /// then goes. On this session's reader, with nothing queued and no send
  /// in flight, the frame goes out at once (send_inline); otherwise it
  /// joins the queue behind the frames before it and the writer thread
  /// sends it.
  /// `on_delivery` (optional) is incremented under mu_ as the frame is
  /// claimed either way, BEFORE the client can observe the response, so
  /// stats() scraped at any moment satisfies forwarded == enqueued +
  /// dropped.
  bool enqueue(std::vector<std::uint8_t> frame,
               std::atomic<std::uint64_t>* on_delivery = nullptr) {
    bool evicted = false;
    bool send_now = false;
    {
      MutexLock lk(mu_);
      if (closing_) return false;
      if (writeq_bytes_ + frame.size() > cfg_.max_write_queue_bytes) {
        closing_ = true;
        writeq_.clear();
        writeq_bytes_ = 0;
        front_sent_ = 0;
        evicted = true;
      } else {
        if (on_delivery) on_delivery->fetch_add(1, std::memory_order_relaxed);
        if (t_reader_of == this && writeq_.empty() && !sending_) {
          sending_ = true;
          send_now = true;
        } else {
          writeq_bytes_ += frame.size();
          writeq_.push_back(std::move(frame));
        }
      }
    }
    if (send_now) {
      send_inline(std::move(frame));
      return true;
    }
    wcv_.notify_all();
    if (evicted) {
      counters_->slow_reader_evictions.fetch_add(1,
                                                 std::memory_order_relaxed);
      shutdown_fd(fd_);  // wakes the blocked reader and writer
      return false;
    }
    return true;
  }

  const int fd_;
  const std::uint64_t conn_id_;
  serve::Engine& engine_;
  const TcpServerConfig& cfg_;  // owned by TcpServer, which outlives us
  const std::shared_ptr<Counters> counters_;

  mutable Mutex mu_;
  CondVar wcv_;
  std::deque<std::vector<std::uint8_t>> writeq_ NNLUT_GUARDED_BY(mu_);
  /// Unsent bytes on the queue (the bound's measure).
  std::size_t writeq_bytes_ NNLUT_GUARDED_BY(mu_) = 0;
  /// Bytes of writeq_.front() already on the wire: the head of a frame
  /// whose inline send came up short.
  std::size_t front_sent_ NNLUT_GUARDED_BY(mu_) = 0;
  /// A thread (the writer, or an inline sender) has a frame on the socket;
  /// every other frame queues behind it.
  bool sending_ NNLUT_GUARDED_BY(mu_) = false;
  bool closing_ NNLUT_GUARDED_BY(mu_) = false;
  /// Client request id -> its engine handle. std::map (ordered) per the
  /// determinism lint; sized by the client's in-flight window.
  std::map<std::uint64_t, serve::PendingResult> inflight_
      NNLUT_GUARDED_BY(mu_);

  std::atomic<bool> finished_{false};
  std::thread writer_;  // joined by the reader on its way out
  std::thread reader_;  // joined by TcpServer (reap or stop)

  friend class TcpServer;
};

TcpServer::TcpServer(serve::Engine& engine, TcpServerConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      counters_(std::make_shared<Counters>()) {
  listen_fd_ = listen_on(cfg_.bind_address, cfg_.port, cfg_.backlog);
  port_ = local_port(listen_fd_);
  port_label_ = std::to_string(port_);
  register_net_metrics();
  accept_thread_ = std::thread([this] { accept_main(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::accept_main() {
  runtime::set_current_thread_name("nnlut-net-acc");
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener is broken; stop accepting
    }
    if (stopping_.load(std::memory_order_acquire)) {
      close_fd(fd);
      break;
    }
    const std::uint64_t conn_id = ++next_conn_id_;
    obs::ScopedSpan span("net.accept", conn_id);
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    auto session = Session::spawn(fd, conn_id, engine_, cfg_, counters_);
    {
      MutexLock lk(sessions_mu_);
      sessions_.push_back(std::move(session));
    }
    reap_finished();
  }
}

void TcpServer::reap_finished() {
  std::vector<std::shared_ptr<Session>> done;
  {
    MutexLock lk(sessions_mu_);
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->finished()) {
        done.push_back(std::move(sessions_[i]));
        sessions_.erase(sessions_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (const auto& s : done) s->join();  // outside the lock
}

void TcpServer::stop() {
  if (stopped_.exchange(true)) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept(2) with shutdown, join, THEN close the fd — closing a
  // descriptor another thread is blocked on is a use-after-close race.
  shutdown_fd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  close_fd(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::shared_ptr<Session>> sessions;
  {
    MutexLock lk(sessions_mu_);
    sessions.swap(sessions_);
  }
  for (const auto& s : sessions) s->close();
  for (const auto& s : sessions) s->join();
  sessions.clear();

  engine_.metrics().remove_labeled("listen", port_label_);
}

NetStats TcpServer::stats() const {
  NetStats out;
  out.connections_accepted =
      counters_->connections_accepted.load(std::memory_order_relaxed);
  out.connections_closed =
      counters_->connections_closed.load(std::memory_order_relaxed);
  out.bytes_read = counters_->bytes_read.load(std::memory_order_relaxed);
  out.bytes_written = counters_->bytes_written.load(std::memory_order_relaxed);
  out.frames_read = counters_->frames_read.load(std::memory_order_relaxed);
  out.frames_written =
      counters_->frames_written.load(std::memory_order_relaxed);
  out.submits_forwarded =
      counters_->submits_forwarded.load(std::memory_order_relaxed);
  out.completions_enqueued =
      counters_->completions_enqueued.load(std::memory_order_relaxed);
  out.responses_dropped =
      counters_->responses_dropped.load(std::memory_order_relaxed);
  out.sheds_preparse =
      counters_->sheds_preparse.load(std::memory_order_relaxed);
  out.protocol_errors =
      counters_->protocol_errors.load(std::memory_order_relaxed);
  out.slow_reader_evictions =
      counters_->slow_reader_evictions.load(std::memory_order_relaxed);
  out.cancels = counters_->cancels.load(std::memory_order_relaxed);
  return out;
}

std::size_t TcpServer::open_connections() const {
  MutexLock lk(sessions_mu_);
  return sessions_.size();
}

void TcpServer::register_net_metrics() {
  using Labels = obs::MetricsRegistry::Labels;
  obs::MetricsRegistry& reg = engine_.metrics();
  const Labels base{{"listen", port_label_}};
  // Callbacks capture the counters shared_ptr, never `this`: they are
  // deregistered in stop(), but even a scrape racing teardown only ever
  // reads the atomics.
  const auto c = counters_;
  struct Family {
    const char* name;
    const char* help;
    std::atomic<std::uint64_t> Counters::*field;
  };
  static const Family kFamilies[] = {
      {"nnlut_net_connections_total", "TCP connections accepted.",
       &Counters::connections_accepted},
      {"nnlut_net_connections_closed_total",
       "TCP connections fully torn down.", &Counters::connections_closed},
      {"nnlut_net_submits_total",
       "Submit frames forwarded into Engine::submit.",
       &Counters::submits_forwarded},
      {"nnlut_net_shed_total",
       "Submits answered kOverloaded before parsing (socket-layer "
       "backpressure composing with admission control).",
       &Counters::sheds_preparse},
      {"nnlut_net_protocol_errors_total",
       "Malformed headers/payloads and misused verbs.",
       &Counters::protocol_errors},
      {"nnlut_net_slow_reader_evictions_total",
       "Connections evicted at the write-queue byte bound.",
       &Counters::slow_reader_evictions},
      {"nnlut_net_cancels_total", "Cancel verbs processed.",
       &Counters::cancels},
  };
  for (const Family& f : kFamilies)
    reg.add_counter(f.name, f.help, base,
                    [c, field = f.field] {
                      return (*c.*field).load(std::memory_order_relaxed);
                    });
  struct Directional {
    const char* dir;
    std::atomic<std::uint64_t> Counters::*bytes;
    std::atomic<std::uint64_t> Counters::*frames;
  };
  static const Directional kDirs[] = {
      {"read", &Counters::bytes_read, &Counters::frames_read},
      {"written", &Counters::bytes_written, &Counters::frames_written},
  };
  for (const Directional& d : kDirs) {
    Labels labels = base;
    labels.emplace_back("dir", d.dir);
    reg.add_counter("nnlut_net_bytes_total",
                    "Frame bytes through the socket layer, by direction.",
                    labels, [c, field = d.bytes] {
                      return (*c.*field).load(std::memory_order_relaxed);
                    });
    reg.add_counter("nnlut_net_frames_total",
                    "Frames through the socket layer, by direction.", labels,
                    [c, field = d.frames] {
                      return (*c.*field).load(std::memory_order_relaxed);
                    });
  }
  struct Outcome {
    const char* outcome;
    std::atomic<std::uint64_t> Counters::*field;
  };
  static const Outcome kOutcomes[] = {
      {"enqueued", &Counters::completions_enqueued},
      {"dropped", &Counters::responses_dropped},
  };
  for (const Outcome& o : kOutcomes) {
    Labels labels = base;
    labels.emplace_back("outcome", o.outcome);
    reg.add_counter(
        "nnlut_net_completions_total",
        "Request completions, by delivery outcome: enqueued toward the "
        "client, or dropped because its connection was gone. "
        "submits == enqueued + dropped once drained.",
        labels, [c, field = o.field] {
          return (*c.*field).load(std::memory_order_relaxed);
        });
  }
}

}  // namespace nnlut::net
