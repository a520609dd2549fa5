#include "http/parser.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace idr::http {

namespace detail {

void ParserBase::to_error(std::string message) {
  state_ = ParseState::Error;
  error_ = std::move(message);
}

void ParserBase::reset_base() {
  state_ = ParseState::Headers;
  error_.clear();
  head_buffer_.clear();
  body_remaining_ = 0;
  body_slice_ = {};
  start_line_done_ = false;
}

std::size_t ParserBase::feed_impl(std::string_view data) {
  std::size_t consumed = 0;
  body_slice_ = {};

  if (state_ == ParseState::Headers) {
    // Accumulate until the blank line. Search spans the buffer/new-data
    // boundary, so keep it simple: append incrementally and look back.
    // Limits are checked per byte so a hostile sender is cut off at the
    // bound, not after buffering an arbitrary prefix.
    while (consumed < data.size()) {
      const char byte = data[consumed++];
      if (byte == '\0') {
        to_error("NUL byte in header block");
        return consumed;
      }
      head_buffer_.push_back(byte);
      if (!start_line_done_) {
        if (byte == '\n') {
          start_line_done_ = true;
        } else if (head_buffer_.size() > limits_.max_start_line_bytes) {
          to_error("start line exceeds limit");
          return consumed;
        }
      }
      if (head_buffer_.size() > limits_.max_header_bytes) {
        to_error("header block exceeds limit");
        return consumed;
      }
      if (head_buffer_.size() >= 4 &&
          head_buffer_.compare(head_buffer_.size() - 4, 4, "\r\n\r\n") == 0) {
        const std::string_view head(head_buffer_.data(),
                                    head_buffer_.size() - 4);
        if (!parse_head(head)) return consumed;  // parse_head set Error
        state_ = body_remaining_ > 0 ? ParseState::Body : ParseState::Complete;
        break;
      }
    }
    if (state_ == ParseState::Headers) return consumed;  // need more bytes
  }

  if (state_ == ParseState::Body) {
    const std::size_t take = static_cast<std::size_t>(std::min<std::uint64_t>(
        body_remaining_, data.size() - consumed));
    body_slice_ = data.substr(consumed, take);
    if (std::string* sink = body_sink()) sink->append(body_slice_);
    consumed += take;
    body_remaining_ -= take;
    if (body_remaining_ == 0) state_ = ParseState::Complete;
  }

  return consumed;
}

bool ParserBase::parse_header_lines(std::string_view block,
                                    HeaderMap& headers) {
  // `block` is everything after the start line, lines split by CRLF.
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view line = block.substr(pos, eol - pos);
    pos = eol + 2;
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      to_error("malformed header line");
      return false;
    }
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (name.empty()) {
      to_error("empty header name");
      return false;
    }
    headers.add(std::string(name), std::string(value));
  }

  if (const auto te = headers.get("Transfer-Encoding"); te.has_value()) {
    if (!util::iequals(util::trim(*te), "identity")) {
      to_error("transfer codings not supported");
      return false;
    }
  }
  if (const auto cl = headers.get("Content-Length"); cl.has_value()) {
    // Reject request smuggling via conflicting duplicate Content-Length
    // headers: every occurrence must parse and agree.
    std::optional<std::uint64_t> length;
    for (std::size_t i = 0; i < headers.size(); ++i) {
      const auto& [name, value] = headers.entry(i);
      if (!util::iequals(name, "Content-Length")) continue;
      const auto parsed = util::parse_u64(util::trim(value));
      if (!parsed || *parsed > limits_.max_body_bytes ||
          (length.has_value() && *length != *parsed)) {
        to_error("bad Content-Length");
        return false;
      }
      length = parsed;
    }
    body_remaining_ = *length;
  } else {
    body_remaining_ = 0;
  }
  return true;
}

}  // namespace detail

void RequestParser::reset() {
  reset_base();
  request_ = Request{};
}

bool RequestParser::parse_head(std::string_view head) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);

  const auto parts = util::split(start_line, ' ');
  if (parts.size() != 3) {
    to_error("malformed request line");
    return false;
  }
  const auto method = parse_method(parts[0]);
  if (!method) {
    to_error("unknown method: " + parts[0]);
    return false;
  }
  if (parts[1].empty()) {
    to_error("empty request target");
    return false;
  }
  if (parts[2] != "HTTP/1.1" && parts[2] != "HTTP/1.0") {
    to_error("unsupported version: " + parts[2]);
    return false;
  }
  request_.method = *method;
  request_.target = parts[1];
  request_.version = parts[2];
  return parse_header_lines(rest, request_.headers);
}

void ResponseParser::reset() {
  reset_base();
  response_ = Response{};
}

bool ResponseParser::parse_head(std::string_view head) {
  const std::size_t line_end = head.find("\r\n");
  const std::string_view start_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);

  // Status line: HTTP/1.1 SP 3digit SP reason(may contain spaces/empty)
  const std::size_t sp1 = start_line.find(' ');
  if (sp1 == std::string_view::npos) {
    to_error("malformed status line");
    return false;
  }
  const std::string_view version = start_line.substr(0, sp1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    to_error("unsupported version");
    return false;
  }
  std::string_view remainder = start_line.substr(sp1 + 1);
  const std::size_t sp2 = remainder.find(' ');
  const std::string_view code_str =
      sp2 == std::string_view::npos ? remainder : remainder.substr(0, sp2);
  const auto code = util::parse_u64(code_str);
  if (!code || code_str.size() != 3 || *code < 100 || *code > 599) {
    to_error("bad status code");
    return false;
  }
  response_.version = std::string(version);
  response_.status = static_cast<int>(*code);
  response_.reason = sp2 == std::string_view::npos
                         ? std::string()
                         : std::string(remainder.substr(sp2 + 1));
  return parse_header_lines(rest, response_.headers);
}

}  // namespace idr::http
