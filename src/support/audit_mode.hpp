// The off/on/audit switch shared by the three analyses that trade work for
// a verdict: the static may-race prescreen (DESIGN.md §9), sync-preserving
// race prediction (§12) and memory-aware value flow (§14).
//
// kOff leaves every byte of pipeline output untouched. kOn acts on the
// verdict (skip shadow work, prune verifier candidates, follow store→load
// edges). kAudit does the full work and counts the cases where the verdict
// was wrong — soundness violations, which must stay zero; a nonzero count
// is carried on the PipelineResult and exits 3 from owl_cli and owl_served.
#pragma once

#include <string_view>

namespace owl::support {

enum class AuditMode {
  kOff,    ///< analysis not consulted (default)
  kOn,     ///< act on the verdict
  kAudit,  ///< full work plus a cross-check of the verdict (must agree)
};

inline std::string_view audit_mode_name(AuditMode mode) noexcept {
  switch (mode) {
    case AuditMode::kOff: return "off";
    case AuditMode::kOn: return "on";
    case AuditMode::kAudit: return "audit";
  }
  return "?";
}

inline bool parse_audit_mode(std::string_view text, AuditMode& out) noexcept {
  if (text == "off") { out = AuditMode::kOff; return true; }
  if (text == "on") { out = AuditMode::kOn; return true; }
  if (text == "audit") { out = AuditMode::kAudit; return true; }
  return false;
}

}  // namespace owl::support
