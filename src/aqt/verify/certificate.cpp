#include "aqt/verify/certificate.hpp"

#include <sstream>

#include "aqt/analysis/bounds.hpp"
#include "aqt/util/hash.hpp"

namespace aqt {
namespace {

/// Quarter-mean growth witness over the per-step backlog series: the run
/// exhibits the monotone queue growth the paper's lower-bound
/// constructions (Theorem 3.17 and kin) produce iff the four quarter
/// means strictly increase and the last quarter at least doubles the
/// first.  Deliberately independent of core/stability.hpp's classifier.
bool monotone_growth_witness(const std::vector<std::uint64_t>& occupancy,
                             std::string& detail) {
  if (occupancy.size() < 8) {
    detail = "too few steps (" + std::to_string(occupancy.size()) +
             ") for a growth witness; need at least 8";
    return false;
  }
  const std::size_t quarter = occupancy.size() / 4;
  double mean[4] = {0, 0, 0, 0};
  for (int q = 0; q < 4; ++q) {
    const std::size_t begin = static_cast<std::size_t>(q) * quarter;
    const std::size_t end =
        q == 3 ? occupancy.size() : begin + quarter;
    for (std::size_t i = begin; i < end; ++i)
      mean[q] += static_cast<double>(occupancy[i]);
    mean[q] /= static_cast<double>(end - begin);
  }
  std::ostringstream os;
  os << "quarter-mean backlog " << mean[0] << " -> " << mean[1] << " -> "
     << mean[2] << " -> " << mean[3];
  const bool increasing =
      mean[0] < mean[1] && mean[1] < mean[2] && mean[2] < mean[3];
  const bool doubled = mean[3] >= 2.0 * mean[0] && mean[3] >= mean[0] + 1.0;
  if (increasing && doubled) {
    os << ": monotone growth";
    detail = os.str();
    return true;
  }
  os << ": no monotone growth";
  detail = os.str();
  return false;
}

}  // namespace

const char* certificate_kind_name(CertificateKind kind) {
  switch (kind) {
    case CertificateKind::kNone: return "none";
    case CertificateKind::kGreedyStability: return "greedy-stability";
    case CertificateKind::kTimePriorityStability:
      return "time-priority-stability";
    case CertificateKind::kInstabilityWitness: return "instability-witness";
  }
  return "none";
}

StabilityCertificate make_stability_certificate(const VerifyReport& report) {
  StabilityCertificate cert;
  cert.protocol = report.protocol;
  cert.trace_hash = report.trace_hash;
  cert.d = report.observed_d;
  cert.observed_max_wait = report.max_wait;

  const bool has_window = report.meta.window_w.has_value() &&
                          report.meta.window_r.has_value();
  const bool has_rate = report.meta.rate_r.has_value();
  if (!has_window && !has_rate) {
    cert.detail = "trace declares no adversary constraint";
    return cert;
  }
  if (cert.d < 1) {
    cert.detail = "no packets observed; nothing to certify";
    return cert;
  }
  const bool time_priority =
      verify_protocol_time_priority(report.protocol);
  const Rat tp_threshold = time_priority_threshold(cert.d);
  const Rat greedy = greedy_threshold(cert.d);

  if (has_window) {
    cert.w = *report.meta.window_w;
    cert.r = *report.meta.window_r;
    if (time_priority && cert.r <= tp_threshold) {
      cert.kind = CertificateKind::kTimePriorityStability;
      cert.theorem = "Theorem 4.3 (time-priority stability, r <= 1/d)";
      cert.threshold = tp_threshold;
    } else if (cert.r <= greedy) {
      cert.kind = CertificateKind::kGreedyStability;
      cert.theorem = "Theorem 4.1 (greedy stability, r <= 1/(d+1))";
      cert.threshold = greedy;
    } else {
      cert.threshold = time_priority ? tp_threshold : greedy;
      cert.detail = "declared rate " + cert.r.str() +
                    " exceeds the stability threshold " +
                    cert.threshold.str() + " for d=" +
                    std::to_string(cert.d) + "; no stability theorem applies";
      return cert;
    }
    cert.applicable = true;
    cert.bound = residence_bound(cert.w, cert.r);
    // N-version cross-check of the library's bound statement with an
    // independent exact-rational evaluation of ceil(w * r).
    if (cert.bound != cert.r.ceil_mul(cert.w)) {
      cert.detail = "bounds library computed ceil(w*r)=" +
                    std::to_string(cert.bound) +
                    " but exact arithmetic gives " +
                    std::to_string(cert.r.ceil_mul(cert.w));
      return cert;
    }
    if (!report.ok()) {
      cert.detail = "trace verification reported violations";
      return cert;
    }
    if (report.max_wait > cert.bound) {
      cert.detail = "observed per-buffer wait " +
                    std::to_string(report.max_wait) +
                    " exceeds the theorem's bound " +
                    std::to_string(cert.bound);
      return cert;
    }
    cert.verified = true;
    cert.detail = "every per-buffer wait <= ceil(w*r) = " +
                  std::to_string(cert.bound);
    return cert;
  }

  // Rate-only declaration: the (w, r) waiting bound needs a window, so the
  // only certifiable statement is the instability-witness one.
  cert.r = *report.meta.rate_r;
  cert.threshold = time_priority ? tp_threshold : greedy;
  if (cert.r <= cert.threshold) {
    cert.detail = "declared rate " + cert.r.str() +
                  " is within the stability threshold " +
                  cert.threshold.str() +
                  " but without a declared window there is no ceil(w*r) "
                  "bound to certify";
    return cert;
  }
  cert.kind = CertificateKind::kInstabilityWitness;
  cert.theorem =
      "Theorem 3.17 regime (rate above threshold; growth witness)";
  cert.applicable = true;
  std::string growth_detail;
  const bool grows = monotone_growth_witness(report.occupancy, growth_detail);
  if (!report.ok()) {
    cert.detail = "trace verification reported violations";
    return cert;
  }
  cert.verified = grows;
  cert.detail = growth_detail;
  return cert;
}

std::string StabilityCertificate::text() const {
  std::ostringstream os;
  os << "-----BEGIN AQT STABILITY CERTIFICATE-----\n"
     << "kind: " << certificate_kind_name(kind) << "\n"
     << "theorem: " << (theorem.empty() ? "-" : theorem) << "\n"
     << "protocol: " << protocol << "\n"
     << "trace-hash: " << hash_hex(trace_hash) << "\n";
  if (w > 0) os << "w: " << w << "\n";
  os << "r: " << r.str() << "\n"
     << "d: " << d << "\n"
     << "threshold: " << threshold.str() << "\n";
  if (kind == CertificateKind::kGreedyStability ||
      kind == CertificateKind::kTimePriorityStability)
    os << "bound: ceil(w*r) = " << bound << "\n"
       << "observed-max-wait: " << observed_max_wait << "\n";
  os << "applicable: " << (applicable ? "yes" : "no") << "\n"
     << "verdict: "
     << (verified ? "VERIFIED" : (applicable ? "NOT-VERIFIED" : "N/A"))
     << "\n"
     << "detail: " << detail << "\n"
     << "-----END AQT STABILITY CERTIFICATE-----\n";
  return os.str();
}

}  // namespace aqt
