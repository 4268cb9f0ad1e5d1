#include "obs/run_report.hpp"

#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmm::obs {

RunReport::RunReport(std::string name) : name_(std::move(name)) {}

void RunReport::upsert(Section& section, const std::string& key,
                       Scalar value) {
  for (auto& [k, v] : section) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  section.emplace_back(key, std::move(value));
}

void RunReport::set_param(const std::string& key, const std::string& value) {
  Scalar s;
  s.kind = Scalar::Kind::kString;
  s.str = value;
  upsert(params_, key, std::move(s));
}

void RunReport::set_param(const std::string& key, const char* value) {
  set_param(key, std::string(value));
}

void RunReport::set_param(const std::string& key, std::int64_t value) {
  Scalar s;
  s.kind = Scalar::Kind::kInt;
  s.i = value;
  upsert(params_, key, std::move(s));
}

void RunReport::set_param(const std::string& key, double value) {
  Scalar s;
  s.kind = Scalar::Kind::kDouble;
  s.d = value;
  upsert(params_, key, std::move(s));
}

void RunReport::set_param(const std::string& key, bool value) {
  Scalar s;
  s.kind = Scalar::Kind::kBool;
  s.b = value;
  upsert(params_, key, std::move(s));
}

void RunReport::set_result(const std::string& key,
                           const std::string& value) {
  Scalar s;
  s.kind = Scalar::Kind::kString;
  s.str = value;
  upsert(results_, key, std::move(s));
}

void RunReport::set_result(const std::string& key, std::int64_t value) {
  Scalar s;
  s.kind = Scalar::Kind::kInt;
  s.i = value;
  upsert(results_, key, std::move(s));
}

void RunReport::set_result(const std::string& key, double value) {
  Scalar s;
  s.kind = Scalar::Kind::kDouble;
  s.d = value;
  upsert(results_, key, std::move(s));
}

void RunReport::set_result(const std::string& key, bool value) {
  Scalar s;
  s.kind = Scalar::Kind::kBool;
  s.b = value;
  upsert(results_, key, std::move(s));
}

void RunReport::add_phase_seconds(const std::string& phase, double seconds) {
  Scalar s;
  s.kind = Scalar::Kind::kDouble;
  s.d = seconds;
  upsert(phases_, phase, std::move(s));
}

void RunReport::add_bound_check(const std::string& name, double bound,
                                double measured) {
  bounds_.push_back(BoundCheck{name, bound, measured});
}

void RunReport::add_raw_section(const std::string& key,
                                std::string json_value) {
  Scalar s;
  s.kind = Scalar::Kind::kRaw;
  s.str = std::move(json_value);
  upsert(extra_, key, std::move(s));
}

void RunReport::attach_metrics_snapshot() {
  metrics_ = Registry::instance().snapshot();
}

std::string RunReport::to_json() const {
  std::ostringstream oss;
  const auto write_scalar = [&oss](const Scalar& s) {
    switch (s.kind) {
      case Scalar::Kind::kString:
        oss << '"' << json_escape(s.str) << '"';
        break;
      case Scalar::Kind::kInt: oss << s.i; break;
      case Scalar::Kind::kDouble: write_double(oss, s.d); break;
      case Scalar::Kind::kBool: oss << (s.b ? "true" : "false"); break;
      case Scalar::Kind::kRaw: oss << s.str; break;
    }
  };
  const auto write_section = [&](const char* key, const Section& section) {
    oss << "  \"" << key << "\": {";
    bool first = true;
    for (const auto& [k, v] : section) {
      oss << (first ? "\n" : ",\n") << "    \"" << json_escape(k) << "\": ";
      write_scalar(v);
      first = false;
    }
    oss << (first ? "" : "\n  ") << "}";
  };

  oss << "{\n";
  oss << "  \"schema\": \"" << kRunReportSchema << "\",\n";
  oss << "  \"schema_version\": " << kRunReportSchemaVersion << ",\n";
  oss << "  \"name\": \"" << json_escape(name_) << "\",\n";
  oss << "  \"meta\": {\"build\": " << build_info_json()
      << ", \"trace\": {\"events\": " << Tracer::instance().num_events()
      << "}},\n";
  write_section("params", params_);
  oss << ",\n";
  write_section("phases_sec", phases_);
  oss << ",\n";
  oss << "  \"bounds\": [";
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const BoundCheck& bc = bounds_[i];
    oss << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
        << json_escape(bc.name) << "\", \"bound\": ";
    write_double(oss, bc.bound);
    oss << ", \"measured\": ";
    write_double(oss, bc.measured);
    oss << ", \"ratio\": ";
    write_double(oss, bc.bound == 0.0 ? 0.0 : bc.measured / bc.bound);
    oss << "}";
  }
  oss << (bounds_.empty() ? "" : "\n  ") << "],\n";
  write_section("results", results_);
  oss << ",\n";
  oss << "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    oss << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(metrics_[i].first) << "\": " << metrics_[i].second;
  }
  oss << (metrics_.empty() ? "" : "\n  ") << "}";
  if (!extra_.empty()) {
    oss << ",\n";
    write_section("extra", extra_);
  }
  oss << "\n}\n";
  return oss.str();
}

void RunReport::write_file(const std::string& path) const {
  write_file_checked(path, to_json());
}

ReportCli parse_report_cli(int argc, char** argv) {
  ReportCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--out" && has_value) {
      cli.out_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      cli.trace_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cli.seed = static_cast<std::uint64_t>(
          std::strtoull(argv[++i], nullptr, 10));
    }
  }
  return cli;
}

void finalize_run(const ReportCli& cli, RunReport& report) {
  report.attach_metrics_snapshot();
  if (cli.wants_report()) {
    report.write_file(cli.out_path);
    FMM_LOG_INFO("wrote run report to " << cli.out_path);
  }
  if (Tracer::instance().enabled()) {
    std::string trace_path = cli.trace_path;
    if (trace_path.empty() && cli.wants_report()) {
      trace_path = cli.out_path;
      const std::string suffix = ".json";
      if (trace_path.size() > suffix.size() &&
          trace_path.compare(trace_path.size() - suffix.size(),
                             suffix.size(), suffix) == 0) {
        trace_path.resize(trace_path.size() - suffix.size());
      }
      trace_path += ".trace.json";
    }
    if (!trace_path.empty()) {
      Tracer::instance().write_file(trace_path);
      FMM_LOG_INFO("wrote Chrome trace to " << trace_path
                                            << " (open in Perfetto)");
    }
  }
}

}  // namespace fmm::obs
