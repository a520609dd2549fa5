#include "rt/http_client.hpp"

#include "http/parser.hpp"
#include "http/traceparent.hpp"
#include "rt/fault_shim.hpp"
#include "rt/http_server.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace idr::rt {

namespace {

struct FetchState {
  Reactor* reactor = nullptr;
  FetchRequest request;
  FetchCallback on_done;
  std::shared_ptr<Connection> conn;
  http::ResponseParser parser;
  FetchResult result;
  std::uint64_t verify_offset = 0;  // absolute offset of next body byte
  bool verify_ok = true;
  bool range_resolved = false;
  bool finished = false;
  TimerId timeout_timer = 0;
  TimerId connect_timer = 0;

  void finish(bool ok, const std::string& error) {
    if (finished) return;
    finished = true;
    reactor_cancel();
    if (conn) conn->close();
    result.ok = ok;
    result.error = error;
    result.finish_time = reactor->now();
    if (on_done) on_done(result);
  }

  void reactor_cancel() {
    if (timeout_timer != 0) {
      reactor->cancel_timer(timeout_timer);
      timeout_timer = 0;
    }
    cancel_connect_timer();
  }

  void cancel_connect_timer() {
    if (connect_timer != 0) {
      reactor->cancel_timer(connect_timer);
      connect_timer = 0;
    }
  }
};

void on_response_progress(const std::shared_ptr<FetchState>& state,
                          std::string_view data) {
  while (!data.empty() && !state->finished) {
    const bool in_headers =
        state->parser.state() == http::ParseState::Headers;
    const std::size_t used = state->parser.feed(data);

    if (state->parser.state() == http::ParseState::Error) {
      state->finish(false, "response parse error: " +
                               state->parser.error());
      return;
    }

    // Header completion: learn the body's absolute offset for integrity
    // checking (Content-Range on 206, zero on 200).
    if (in_headers &&
        state->parser.state() != http::ParseState::Headers &&
        !state->range_resolved) {
      state->range_resolved = true;
      state->result.status = state->parser.response().status;
      state->result.first_byte_time = state->reactor->now();
      if (const auto cr =
              state->parser.response().headers.get("Content-Range")) {
        if (const auto parsed = http::parse_content_range(*cr)) {
          state->verify_offset = parsed->first.first;
        }
      }
      // Retry-After (delta-seconds form only): an overloaded server's
      // pacing hint for the retry machinery upstream.
      if (const auto ra =
              state->parser.response().headers.get("Retry-After")) {
        if (const auto secs = util::parse_u64(util::trim(*ra))) {
          state->result.retry_after_s = static_cast<double>(*secs);
        }
      }
    }

    // Verify (and, when asked, keep) the body bytes this feed delivered;
    // the parser itself stores none of them.
    const std::string_view slice = state->parser.body_slice();
    const std::uint64_t offset =
        state->verify_offset + state->result.body_bytes;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      if (slice[i] != resource_byte(offset + i)) state->verify_ok = false;
    }
    state->result.body_bytes += slice.size();
    if (state->request.capture_body) state->result.body.append(slice);

    if (state->parser.state() == http::ParseState::Complete) {
      state->result.body_verified =
          state->verify_ok && state->result.status / 100 == 2;
      state->finish(state->result.status / 100 == 2,
                    state->result.status / 100 == 2
                        ? ""
                        : "http status " +
                              std::to_string(state->result.status));
      return;
    }
    data.remove_prefix(used);
    if (used == 0) {
      state->finish(false, "parser made no progress");
      return;
    }
  }
}

}  // namespace

void FetchHandle::cancel() {
  if (auto locked = state_.lock()) {
    auto state = std::static_pointer_cast<FetchState>(locked);
    state->finished = true;  // suppress the callback
    state->reactor_cancel();
    if (state->conn) state->conn->close();
  }
}

FetchHandle fetch(Reactor& reactor, const FetchRequest& request,
                  FetchCallback on_done) {
  IDR_REQUIRE(on_done != nullptr, "fetch: null callback");
  IDR_REQUIRE(request.origin.port != 0, "fetch: origin port required");

  auto state = std::make_shared<FetchState>();
  state->reactor = &reactor;
  state->request = request;
  state->on_done = std::move(on_done);
  state->result.start_time = reactor.now();

  const Endpoint& connect_to =
      request.proxy ? *request.proxy : request.origin;

  FdHandle fd;
  try {
    fd = connect_nonblocking(connect_to.host, connect_to.port);
  } catch (const util::Error& e) {
    // Report asynchronously for a uniform interface.
    reactor.add_timer(0.0, [state, error = std::string(e.what())] {
      state->finish(false, error);
    });
    return FetchHandle(state);
  }

  state->conn = Connection::adopt(reactor, std::move(fd));
  // Fault shim: a rule armed against this destination rides the new
  // connection (no-op when the shim table is empty).
  if (const auto rule = FaultShim::instance().take(connect_to.port)) {
    state->conn->set_fault(*rule);
  }
  state->conn->set_on_data([state](std::string_view data) {
    on_response_progress(state, data);
  });
  state->conn->set_on_close([state](const std::string& error) {
    if (!state->finished) {
      state->finish(false, error.empty() ? "connection closed early"
                                         : error);
    }
  });

  state->timeout_timer = reactor.add_timer(request.timeout_s, [state] {
    state->finish(false, "timeout");
  });
  if (request.connect_timeout_s > 0.0) {
    state->connect_timer =
        reactor.add_timer(request.connect_timeout_s, [state] {
          state->finish(false, "connect timeout");
        });
  }

  state->conn->await_connect([state](const std::string& error) {
    if (state->finished) return;
    state->cancel_connect_timer();
    if (!error.empty()) {
      state->finish(false, "connect: " + error);
      return;
    }
    http::Request req;
    req.method = http::Method::GET;
    const std::string authority =
        state->request.origin.host + ":" +
        std::to_string(state->request.origin.port);
    req.target = state->request.proxy
                     ? "http://" + authority + state->request.path
                     : state->request.path;
    req.headers.add("Host", authority);
    if (state->request.range) {
      req.headers.add("Range",
                      http::format_range_header(*state->request.range));
    }
    if (state->request.trace.valid()) {
      req.headers.add(std::string(http::kTraceparentHeader),
                      http::format_traceparent(state->request.trace));
    }
    state->conn->write(req.serialize());
  });

  return FetchHandle(state);
}

}  // namespace idr::rt
