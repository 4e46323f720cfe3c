#include "serve/protocol.hpp"

#include "core/manifest.hpp"
#include "support/strings.hpp"

namespace owl::serve {
namespace {

bool read_uint(const JsonValue& value, std::uint64_t& out) {
  if (!value.is_int() || value.as_int() < 0) return false;
  out = static_cast<std::uint64_t>(value.as_int());
  return true;
}

bool read_word_list(const JsonValue& value, std::vector<std::int64_t>& out) {
  if (!value.is_array()) return false;
  out.clear();
  for (const JsonValue& item : value.as_array()) {
    if (!item.is_int()) return false;
    out.push_back(item.as_int());
  }
  return true;
}

std::string words_csv(const std::vector<std::int64_t>& words) {
  std::string out;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(words[i]);
  }
  return out;
}

}  // namespace

bool AnalysisOptions::from_json(const JsonValue& value, AnalysisOptions& out,
                                std::string& error) {
  if (!value.is_object()) {
    error = "options must be an object";
    return false;
  }
  const auto bad = [&error](const std::string& key) {
    error = "bad value for option \"" + key + "\"";
    return false;
  };
  for (const auto& [key, field] : value.as_object()) {
    if (key == "entry") {
      if (!field.is_string() || field.as_string().empty()) return bad(key);
      out.entry = field.as_string();
    } else if (key == "inputs") {
      if (!read_word_list(field, out.inputs)) return bad(key);
    } else if (key == "exploit_inputs") {
      if (!read_word_list(field, out.exploit_inputs)) return bad(key);
    } else if (key == "detector") {
      if (!field.is_string() ||
          !core::parse_detector_kind(field.as_string(), out.detector)) {
        return bad(key);
      }
    } else if (key == "detector_impl") {
      if (!field.is_string() ||
          !race::parse_detector_impl(field.as_string(), out.detector_impl)) {
        return bad(key);
      }
    } else if (key == "prescreen" || key == "predict" || key == "vuln_flow") {
      support::AuditMode& mode = key == "prescreen" ? out.prescreen
                                 : key == "predict" ? out.predict
                                                    : out.vuln_flow;
      if (!field.is_string() ||
          !support::parse_audit_mode(field.as_string(), mode)) {
        return bad(key);
      }
    } else if (key == "schedules") {
      std::uint64_t n = 0;
      if (!read_uint(field, n) || n == 0 || n > kMaxSchedules) return bad(key);
      out.schedules = static_cast<unsigned>(n);
    } else if (key == "seed") {
      if (!field.is_int()) return bad(key);
      out.seed = static_cast<std::uint64_t>(field.as_int());
    } else if (key == "max_steps") {
      std::uint64_t n = 0;
      if (!read_uint(field, n) || n == 0) return bad(key);
      out.max_steps = n;
    } else if (key == "adhoc") {
      if (!field.is_bool()) return bad(key);
      out.adhoc = field.as_bool();
    } else if (key == "race_verifier") {
      if (!field.is_bool()) return bad(key);
      out.race_verifier = field.as_bool();
    } else if (key == "vuln_verifier") {
      if (!field.is_bool()) return bad(key);
      out.vuln_verifier = field.as_bool();
    } else if (key == "whole_program") {
      if (!field.is_bool()) return bad(key);
      out.whole_program = field.as_bool();
    } else if (key == "print_module") {
      if (!field.is_bool()) return bad(key);
      out.print_module = field.as_bool();
    } else if (key == "print_reports") {
      if (!field.is_bool()) return bad(key);
      out.print_reports = field.as_bool();
    } else if (key == "quiet") {
      if (!field.is_bool()) return bad(key);
      out.quiet = field.as_bool();
    } else if (key == "stage_deadline") {
      if (!field.is_number() || field.as_double() < 0) return bad(key);
      out.stage_deadline = field.as_double();
    } else if (key == "retries") {
      std::uint64_t n = 0;
      if (!read_uint(field, n) || n > kMaxRetries) return bad(key);
      out.retries = static_cast<unsigned>(n);
    } else if (key == "jobs") {
      std::uint64_t n = 0;
      if (!read_uint(field, n) || n > kMaxJobs) return bad(key);
      out.jobs = static_cast<unsigned>(n);
    } else if (key == "checkers") {
      std::string checker_error;
      if (!field.is_string() ||
          !checkers::CheckerOptions::parse(field.as_string(), out.checkers,
                                           checker_error)) {
        return bad(key);
      }
    } else if (key == "sarif") {
      if (!field.is_bool()) return bad(key);
      out.sarif = field.as_bool();
    } else if (key == "repair") {
      if (!field.is_bool()) return bad(key);
      out.repair = field.as_bool();
    } else {
      // Strict: an ignored option would silently answer for the wrong
      // owl_cli invocation.
      error = "unknown option \"" + key + "\"";
      return false;
    }
  }
  return true;
}

std::string AnalysisOptions::canonical_blob(
    const std::string& target_name) const {
  // v5: the blob gained vuln_flow= (v4 repair=, v3 predict=, v2
  // checkers=/sarif=) — the marker bump makes keys from older daemons
  // differ even for flow-off requests.
  std::string out = "owl-options-v5\n";
  out += "name=" + target_name + "\n";
  out += "entry=" + entry + "\n";
  out += "inputs=" + words_csv(inputs) + "\n";
  out += "exploit_inputs=" + words_csv(exploit_inputs) + "\n";
  out += "detector=";
  out += core::detector_kind_name(detector);
  out += "\n";
  out += "detector_impl=";
  out += race::detector_impl_name(detector_impl);
  out += "\n";
  out += "prescreen=";
  out += support::audit_mode_name(prescreen);
  out += "\n";
  out += "predict=";
  out += support::audit_mode_name(predict);
  out += "\n";
  out += "vuln_flow=";
  out += support::audit_mode_name(vuln_flow);
  out += "\n";
  out += str_format("schedules=%u\n", schedules);
  out += str_format("seed=%llu\n", static_cast<unsigned long long>(seed));
  out += str_format("max_steps=%llu\n",
                    static_cast<unsigned long long>(max_steps));
  out += str_format("adhoc=%d\n", adhoc ? 1 : 0);
  out += str_format("race_verifier=%d\n", race_verifier ? 1 : 0);
  out += str_format("vuln_verifier=%d\n", vuln_verifier ? 1 : 0);
  out += str_format("whole_program=%d\n", whole_program ? 1 : 0);
  out += str_format("print_module=%d\n", print_module ? 1 : 0);
  out += str_format("print_reports=%d\n", print_reports ? 1 : 0);
  out += str_format("quiet=%d\n", quiet ? 1 : 0);
  out += str_format("stage_deadline=%.6f\n", stage_deadline);
  out += str_format("retries=%u\n", retries);
  // NOTE: jobs is deliberately part of the blob even though responses are
  // byte-identical across jobs values — the equivalence is a *property the
  // differential gate proves*, not an assumption the cache bakes in. Two
  // keys that collapse only if the property holds would make a determinism
  // bug unobservable.
  out += str_format("jobs=%u\n", jobs);
  out += "checkers=" + checkers.canonical() + "\n";
  out += str_format("sarif=%d\n", sarif ? 1 : 0);
  out += str_format("repair=%d\n", repair ? 1 : 0);
  return out;
}

Status parse_request(std::string_view line, Request& out) {
  JsonValue root;
  std::string error;
  if (!JsonValue::parse(line, root, error)) {
    return parse_error("request is not valid JSON: " + error);
  }
  if (!root.is_object()) {
    return invalid_argument_error("request must be a JSON object");
  }
  out = Request();
  const JsonValue* options_value = nullptr;
  for (const auto& [key, field] : root.as_object()) {
    if (key == "op") {
      if (!field.is_string()) {
        return invalid_argument_error("\"op\" must be a string");
      }
      const std::string& op = field.as_string();
      if (op == "analyze") {
        out.op = Request::Op::kAnalyze;
      } else if (op == "ping") {
        out.op = Request::Op::kPing;
      } else if (op == "stats") {
        out.op = Request::Op::kStats;
      } else if (op == "shutdown") {
        out.op = Request::Op::kShutdown;
      } else {
        return invalid_argument_error("unknown op \"" + op + "\"");
      }
    } else if (key == "id") {
      if (!field.is_string()) {
        return invalid_argument_error("\"id\" must be a string");
      }
      out.id = field.as_string();
    } else if (key == "client") {
      if (!field.is_string()) {
        return invalid_argument_error("\"client\" must be a string");
      }
      out.client = field.as_string();
    } else if (key == "module_path") {
      if (!field.is_string() || field.as_string().empty()) {
        return invalid_argument_error("\"module_path\" must be a non-empty string");
      }
      out.module_path = field.as_string();
    } else if (key == "module_text") {
      if (!field.is_string()) {
        return invalid_argument_error("\"module_text\" must be a string");
      }
      out.module_text = field.as_string();
    } else if (key == "name") {
      if (!field.is_string()) {
        return invalid_argument_error("\"name\" must be a string");
      }
      out.name = field.as_string();
    } else if (key == "options") {
      options_value = &field;
    } else {
      return invalid_argument_error("unknown request field \"" + key + "\"");
    }
  }
  if (options_value != nullptr) {
    std::string options_error;
    if (!AnalysisOptions::from_json(*options_value, out.options,
                                    options_error)) {
      return invalid_argument_error(options_error);
    }
  }
  if (out.op == Request::Op::kAnalyze) {
    const bool has_path = !out.module_path.empty();
    const bool has_text = root.find("module_text") != nullptr;
    if (has_path == has_text) {
      return invalid_argument_error(
          "analyze requires exactly one of \"module_path\" or "
          "\"module_text\"");
    }
  }
  return Status::ok();
}

std::string serialize_request(const Request& request) {
  const AnalysisOptions& opt = request.options;
  const auto words_json = [](const std::vector<std::int64_t>& words) {
    std::string out = "[";
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(words[i]);
    }
    out += "]";
    return out;
  };
  std::string out = "{\"op\":\"analyze\"";
  out += ",\"id\":" + json_quote(request.id);
  out += ",\"client\":" + json_quote(request.client);
  out += ",\"module_text\":" + json_quote(request.module_text);
  out += ",\"name\":" + json_quote(request.display_name());
  out += ",\"options\":{";
  out += "\"entry\":" + json_quote(opt.entry);
  out += ",\"inputs\":" + words_json(opt.inputs);
  out += ",\"exploit_inputs\":" + words_json(opt.exploit_inputs);
  out += ",\"detector\":" +
         json_quote(core::detector_kind_name(opt.detector));
  out += ",\"detector_impl\":" +
         json_quote(race::detector_impl_name(opt.detector_impl));
  out += ",\"prescreen\":" +
         json_quote(support::audit_mode_name(opt.prescreen));
  out += ",\"predict\":" + json_quote(support::audit_mode_name(opt.predict));
  out += ",\"vuln_flow\":" +
         json_quote(support::audit_mode_name(opt.vuln_flow));
  out += str_format(",\"schedules\":%u", opt.schedules);
  out += str_format(",\"seed\":%lld", static_cast<long long>(opt.seed));
  out += str_format(",\"max_steps\":%llu",
                    static_cast<unsigned long long>(opt.max_steps));
  const auto flag = [](bool value) { return value ? "true" : "false"; };
  out += std::string(",\"adhoc\":") + flag(opt.adhoc);
  out += std::string(",\"race_verifier\":") + flag(opt.race_verifier);
  out += std::string(",\"vuln_verifier\":") + flag(opt.vuln_verifier);
  out += std::string(",\"whole_program\":") + flag(opt.whole_program);
  out += std::string(",\"print_module\":") + flag(opt.print_module);
  out += std::string(",\"print_reports\":") + flag(opt.print_reports);
  out += std::string(",\"quiet\":") + flag(opt.quiet);
  out += str_format(",\"stage_deadline\":%.6f", opt.stage_deadline);
  out += str_format(",\"retries\":%u", opt.retries);
  out += str_format(",\"jobs\":%u", opt.jobs);
  out += ",\"checkers\":" + json_quote(opt.checkers.canonical());
  out += std::string(",\"sarif\":") + flag(opt.sarif);
  out += std::string(",\"repair\":") + flag(opt.repair);
  out += "}}";
  return out;
}

std::string ok_response(const std::string& id, std::string_view cache,
                        int exit_code, bool degraded,
                        const std::string& manifest_sha,
                        const std::string& output, const std::string& error) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"ok\"";
  out += ",\"cache\":" + json_quote(cache);
  out += str_format(",\"exit\":%d", exit_code);
  out += ",\"degraded\":";
  out += degraded ? "true" : "false";
  out += ",\"manifest_sha\":" + json_quote(manifest_sha);
  out += ",\"output\":" + json_quote(output);
  out += ",\"error\":" + json_quote(error);
  out += "}\n";
  return out;
}

std::string rejected_response(const std::string& id, std::string_view reason,
                              unsigned retry_after_ms) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"rejected\"";
  out += ",\"reason\":" + json_quote(reason);
  out += str_format(",\"retry_after_ms\":%u", retry_after_ms);
  out += "}\n";
  return out;
}

std::string error_response(const std::string& id, const std::string& reason) {
  std::string out = "{\"id\":" + json_quote(id);
  out += ",\"status\":\"error\"";
  out += ",\"reason\":" + json_quote(reason);
  out += "}\n";
  return out;
}

std::string ping_response() {
  return "{\"status\":\"ok\",\"pong\":true}\n";
}

}  // namespace owl::serve
