#pragma once
// The `mvf serve` wire protocol: line-delimited JSON over a stream socket.
//
// Every request is one JSON object on one line with an "op" member;
// every response is one JSON object on one line with an "ok" member.
// Between a streaming submit/watch's ack and its final response the server
// interleaves NDJSON trace records (obs::TraceSink pointed at the client
// socket) -- those lines carry a "ph" member and never an "ok", so a
// client demultiplexes by key.
//
//   op        request members                  response
//   --------  -------------------------------  -------------------------------
//   ping      -                                {"ok":true}
//   submit    spec (text), timeout_s?,         ack {"ok":true,"job":id};
//             stream?, wait? (default true)    wait: results line after run
//   status    job? (all jobs when absent)      {"ok":true,"jobs":[...]}
//   results   job                              {"ok":true,"report":...,
//                                               "records_hash":...,...}
//   watch     job                              streams until terminal, then
//                                              the job's results line
//   cancel    job                              {"ok":true,"state":...}
//   shutdown  -                                {"ok":true} then server exits
//
// Errors: {"ok":false,"error":"..."} -- unknown op, malformed JSON,
// unknown or evicted job id (the scheduler keeps the most recent
// flow::JobScheduler::kMaxRetainedJobs finished jobs), malformed scenario
// spec.
// A request line longer than kMaxRequestLine bytes gets one error line,
// and the server then drops the connection (it stops reading mid-line,
// so the stream is out of step).  A connection beyond the server's
// Server::kMaxSessions live sessions gets one error line before any
// request and is closed.
//
// records_hash (flow::records_hash) is the bit-identity fingerprint CI
// keys on: the batch records as JSON with volatile members (wall-clock
// timings, latency histograms, cache-hit counts) stripped recursively,
// canonicalized, and FNV-1a hashed -- equal hashes mean semantically
// identical results, no matter which stages came from the cache.

#include <cstddef>
#include <string>

#include "report/json.hpp"

namespace mvf::serve {

/// Protocol schema version, echoed in every ack.
inline constexpr int kProtocolVersion = 1;

/// Longest request line the server buffers (1 MiB: a submitted spec text
/// of thousands of scenario lines fits many times over).  Responses are
/// not capped.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// {"ok":false,"error":text} on one line.
std::string error_line(const std::string& text);

/// Serializes `j` compactly; the protocol's one-line framing.
std::string response_line(const report::Json& j);

}  // namespace mvf::serve
