// Incremental HTTP/1.1 parser for requests and responses.
//
// feed() consumes bytes as they arrive from a socket (or a simulated
// stream) and transitions Headers -> Body -> Complete, or to Error with a
// diagnostic. Framing is by Content-Length; chunked transfer coding is
// deliberately rejected (the runtime never generates it, and a relay must
// not silently mis-frame what it forwards).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "http/message.hpp"

namespace idr::http {

enum class ParseState { Headers, Body, Complete, Error };

/// Limits guard a relay from memory exhaustion by a misbehaving peer.
/// Every bound is enforced incrementally, so a hostile stream is rejected
/// as soon as it crosses a limit rather than after it has been buffered.
struct ParserLimits {
  std::size_t max_start_line_bytes = 8 * 1024;
  std::size_t max_header_bytes = 64 * 1024;
  std::uint64_t max_body_bytes = 1ULL << 33;  // 8 GiB
};

namespace detail {

/// State shared by both parser directions: header-block accumulation and
/// body framing.
class ParserBase {
 public:
  ParseState state() const { return state_; }
  const std::string& error() const { return error_; }
  /// Bytes of body still expected (valid in Body state).
  std::uint64_t body_remaining() const { return body_remaining_; }
  /// The body bytes the last feed() consumed: a view into the data it was
  /// given, empty when that feed carried none.
  std::string_view body_slice() const { return body_slice_; }

  /// Replaces the default limits; takes effect for bytes fed afterwards
  /// (callers set limits before feeding).
  void set_limits(const ParserLimits& limits) { limits_ = limits; }
  const ParserLimits& limits() const { return limits_; }

 protected:
  std::size_t feed_impl(std::string_view data);
  void to_error(std::string message);
  /// Parses the accumulated header block; implemented per direction.
  virtual bool parse_head(std::string_view head) = 0;
  /// Where body bytes are stored; null to only frame them (body_slice()).
  virtual std::string* body_sink() = 0;
  virtual ~ParserBase() = default;

  /// Parses "Name: value" lines after the start line into `headers`, and
  /// extracts Content-Length framing. Returns false (after to_error) on
  /// malformed input.
  bool parse_header_lines(std::string_view block, HeaderMap& headers);

  void reset_base();

  ParseState state_ = ParseState::Headers;
  std::string error_;
  std::string head_buffer_;
  std::uint64_t body_remaining_ = 0;
  std::string_view body_slice_;
  ParserLimits limits_{};
  bool start_line_done_ = false;
};

}  // namespace detail

class RequestParser final : public detail::ParserBase {
 public:
  /// Consumes up to one complete message from `data`; returns the number
  /// of bytes consumed (callers keep the rest for the next message).
  std::size_t feed(std::string_view data) { return feed_impl(data); }
  /// Valid once state() == Complete.
  const Request& request() const { return request_; }
  void reset();

 private:
  bool parse_head(std::string_view head) override;
  std::string* body_sink() override { return &request_.body; }
  Request request_;
};

/// Frames responses without storing their bodies: response().body stays
/// empty, and each feed's body bytes are reported through body_slice().
/// A relay forwarding or a client verifying gigabytes keeps only framing.
class ResponseParser final : public detail::ParserBase {
 public:
  std::size_t feed(std::string_view data) { return feed_impl(data); }
  const Response& response() const { return response_; }
  void reset();

 private:
  bool parse_head(std::string_view head) override;
  std::string* body_sink() override { return nullptr; }
  Response response_;
};

}  // namespace idr::http
