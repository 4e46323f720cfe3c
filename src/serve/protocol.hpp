// The owl_serve wire protocol: newline-delimited JSON over a Unix-domain
// socket (DESIGN.md §10).
//
// One request per line, one response line per request. Responses echo the
// request's `id`; when requests overlap (several analyzes pipelined on one
// connection) responses may arrive out of order — immediate answers (pings,
// rejections) overtake queued analyses — so clients correlate by id. Ops:
//
//   {"op":"analyze", "id":"r1", "client":"ci",
//    "module_path":"examples/ir/toctou.mir",      // or "module_text":"..."
//    "name":"toctou",                              // display name for
//                                                  // module_text (defaults
//                                                  // to "<inline>")
//    "options":{...}}                              // see AnalysisOptions
//   {"op":"ping"}
//   {"op":"stats"}        // server counters (admission, cache, journal)
//   {"op":"shutdown"}     // graceful drain, same as SIGTERM
//
// `op` defaults to "analyze" so the minimal request is just a module.
// Responses:
//
//   {"id":...,"status":"ok","cache":"hit"|"miss"|"off","exit":0,
//    "degraded":false,"manifest_sha":"...","output":"<owl_cli stdout>",
//    "error":""}
//   {"id":...,"status":"rejected","reason":"queue_full"|
//    "client_inflight_exceeded"|"shutting_down","retry_after_ms":100}
//   {"id":...,"status":"error","reason":"..."}    // malformed request,
//                                                  // unreadable module,
//                                                  // injected service fault
//
// The `output` field of an "ok"/"error" analyze response carries exactly
// the bytes one-shot `owl_cli` would print to stdout for the same module
// and options, and `exit` its exit status — the differential gate
// (scripts/serve_check.py) compares both. `options` is strict: unknown
// keys are an error, because a silently ignored option would produce a
// response that is byte-identical to the *wrong* owl_cli invocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "race/tsan_detector.hpp"
#include "serve/json.hpp"
#include "support/status.hpp"

namespace owl::serve {

/// Caps on the numeric options that size work, enforced by both parsers
/// (owl_cli's flags and the daemon's JSON): outside input must not pick an
/// unbounded thread count, retry loop or schedule sweep.
inline constexpr unsigned kMaxJobs = 256;
inline constexpr unsigned kMaxRetries = 1000;
inline constexpr unsigned kMaxSchedules = 1u << 20;

/// Per-request analysis options: what owl_cli's analysis flags and the
/// daemon's "options" object both parse into (process concerns like
/// --trace-out stay CLI-only). Defaults match owl_cli with no flags, so an
/// empty options object means "what owl_cli does with no flags".
struct AnalysisOptions {
  std::string entry = "main";
  std::vector<std::int64_t> inputs;
  std::vector<std::int64_t> exploit_inputs;  ///< empty = same as inputs
  core::DetectorKind detector = core::DetectorKind::kTsan;
  race::DetectorImpl detector_impl = race::DetectorImpl::kFast;
  support::AuditMode prescreen = support::AuditMode::kOff;
  support::AuditMode predict = support::AuditMode::kOff;
  support::AuditMode vuln_flow = support::AuditMode::kOff;
  unsigned schedules = 4;
  std::uint64_t seed = 1;
  std::uint64_t max_steps = 400'000;
  bool adhoc = true;
  bool race_verifier = true;
  bool vuln_verifier = true;
  bool whole_program = false;
  bool print_module = false;
  bool print_reports = false;
  bool quiet = false;
  double stage_deadline = 0.0;  ///< 0 = unlimited
  unsigned retries = 2;
  unsigned jobs = 1;  ///< intra-request parallelism (verifier sharding)
  /// Concurrency checker suite selection (--checkers); stored
  /// parsed so canonical_blob hashes the canonical spelling, not whatever
  /// comma order the client typed.
  checkers::CheckerOptions checkers;
  /// `--sarif-out -`: append the SARIF 2.1.0 log to the output.
  bool sarif = false;
  /// `--repair DIR` minus the DIR: the repair stage runs and its
  /// path-independent report renders into the output; only owl_cli writes
  /// fixed-module files.
  bool repair = false;

  /// Parses the "options" object; st carries the offending key on error.
  static bool from_json(const JsonValue& value, AnalysisOptions& out,
                        std::string& error);

  /// Canonical key=value text form, one option per line in a fixed order,
  /// with the target's display name folded in (the name appears in the
  /// rendered output, so it is part of what identifies a result). This
  /// blob — not the JSON, whose member order the client controls — is what
  /// the cache key hashes.
  std::string canonical_blob(const std::string& target_name) const;
};

/// One parsed request line.
struct Request {
  enum class Op { kAnalyze, kPing, kStats, kShutdown };
  Op op = Op::kAnalyze;
  std::string id;           ///< echoed verbatim in the response ("" ok)
  std::string client;       ///< admission-control identity ("" = per-conn)
  std::string module_path;  ///< exactly one of module_path/module_text
  std::string module_text;
  std::string name;         ///< display name for module_text
  AnalysisOptions options;

  /// Display name as owl_cli would print it: the path, or name/"<inline>".
  const std::string& display_name() const noexcept {
    static const std::string kInline = "<inline>";
    if (!module_path.empty()) return module_path;
    return name.empty() ? kInline : name;
  }
};

/// Parses one request line. On failure the returned status describes the
/// problem (the server answers with a structured "error" response).
Status parse_request(std::string_view line, Request& out);

/// Serializes an analyze request in resolved form — module text inline,
/// display name pinned, every option explicit — as one line WITHOUT the
/// trailing '\n'. This is the journal's A-record payload: the round trip
/// parse_request(serialize_request(r)) reproduces the module bytes, the
/// display name, and every option, so a post-crash replay recomputes the
/// same cache key and byte-identical output with no filesystem dependency.
std::string serialize_request(const Request& request);

// --- response builders (all return one line, '\n' included) ---

/// Completed analysis (exit 0/2/3): cache is "hit", "miss", or "off".
std::string ok_response(const std::string& id, std::string_view cache,
                        int exit_code, bool degraded,
                        const std::string& manifest_sha,
                        const std::string& output, const std::string& error);

/// Load-shed / drain rejection with the client's structured retry hint.
std::string rejected_response(const std::string& id, std::string_view reason,
                              unsigned retry_after_ms);

/// Malformed request or service-layer failure.
std::string error_response(const std::string& id, const std::string& reason);

std::string ping_response();

}  // namespace owl::serve
