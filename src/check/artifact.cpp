#include "check/artifact.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sprwl::check {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Locates `"key"` and returns the index just past the following ':', or
// npos. All keys in the artifact are unique across nesting levels, so a
// flat scan is unambiguous.
std::size_t after_key(const std::string& s, const std::string& key) {
  const std::size_t k = s.find("\"" + key + "\"");
  if (k == std::string::npos) return std::string::npos;
  const std::size_t colon = s.find(':', k);
  if (colon == std::string::npos) return std::string::npos;
  return colon + 1;
}

bool parse_u64(const std::string& s, const std::string& key,
               std::uint64_t* out) {
  std::size_t i = after_key(s, key);
  if (i == std::string::npos) return false;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  std::size_t end = i;
  while (end < s.size() && std::isdigit(static_cast<unsigned char>(s[end])))
    ++end;
  if (end == i) return false;
  *out = std::stoull(s.substr(i, end - i));
  return true;
}

bool parse_int(const std::string& s, const std::string& key, int* out) {
  std::uint64_t v = 0;
  if (!parse_u64(s, key, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_string(const std::string& s, const std::string& key,
                  std::string* out) {
  std::size_t i = after_key(s, key);
  if (i == std::string::npos) return false;
  while (i < s.size() && s[i] != '"') ++i;
  if (i >= s.size()) return false;
  ++i;
  std::string val;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': val += '\n'; break;
        case 't': val += '\t'; break;
        case 'u':
          if (i + 4 < s.size()) {
            val += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
            i += 4;
          }
          break;
        default: val += s[i];
      }
    } else {
      val += s[i];
    }
    ++i;
  }
  *out = val;
  return true;
}

bool parse_int_array(const std::string& s, const std::string& key,
                     std::vector<int>* out) {
  std::size_t i = after_key(s, key);
  if (i == std::string::npos) return false;
  while (i < s.size() && s[i] != '[') ++i;
  const std::size_t close = s.find(']', i);
  if (i >= s.size() || close == std::string::npos) return false;
  out->clear();
  ++i;
  while (i < close) {
    while (i < close && !std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t end = i;
    while (end < close && std::isdigit(static_cast<unsigned char>(s[end])))
      ++end;
    if (end > i) out->push_back(std::stoi(s.substr(i, end - i)));
    i = end + 1;
  }
  return true;
}

bool parse_bool(const std::string& s, const std::string& key, bool* out) {
  std::size_t i = after_key(s, key);
  if (i == std::string::npos) return false;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (s.compare(i, 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (s.compare(i, 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

bool parse_u64_array(const std::string& s, const std::string& key,
                     std::vector<std::uint64_t>* out) {
  std::size_t i = after_key(s, key);
  if (i == std::string::npos) return false;
  while (i < s.size() && s[i] != '[') ++i;
  const std::size_t close = s.find(']', i);
  if (i >= s.size() || close == std::string::npos) return false;
  out->clear();
  ++i;
  while (i < close) {
    while (i < close && !std::isdigit(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t end = i;
    while (end < close && std::isdigit(static_cast<unsigned char>(s[end])))
      ++end;
    if (end > i) out->push_back(std::stoull(s.substr(i, end - i)));
    i = end + 1;
  }
  return true;
}

}  // namespace

std::string write_artifact(const ReproArtifact& a, const std::string& dir) {
  std::string path = dir.empty() ? "." : dir;
  path += "/CHECK_repro_" + std::to_string(a.seed) + ".json";
  std::ostringstream os;
  os << "{\n"
     << "  \"lock\": \"" << escape(a.lock) << "\",\n"
     << "  \"policy\": \"" << escape(a.policy) << "\",\n"
     << "  \"seed\": " << a.seed << ",\n"
     << "  \"workload\": {\n"
     << "    \"threads\": " << a.workload.threads << ",\n"
     << "    \"writers\": " << a.workload.writers << ",\n"
     << "    \"ops_per_thread\": " << a.workload.ops_per_thread << ",\n"
     << "    \"cells\": " << a.workload.cells << ",\n"
     << "    \"max_decisions\": " << a.workload.max_decisions << ",\n"
     << "    \"no_progress_bound\": " << a.workload.no_progress_bound << ",\n"
     << "    \"timed_reads\": " << (a.workload.timed_reads ? "true" : "false")
     << ",\n"
     << "    \"read_deadlines\": [";
  for (std::size_t i = 0; i < a.workload.read_deadlines.size(); ++i) {
    if (i != 0) os << ", ";
    os << a.workload.read_deadlines[i];
  }
  os << "],\n"
     << "    \"snapshot_reads\": "
     << (a.workload.snapshot_reads ? "true" : "false") << ",\n"
     << "    \"retain_versions\": " << a.workload.retain_versions << "\n"
     << "  },\n"
     << "  \"violation\": \"" << escape(a.violation) << "\",\n"
     << "  \"choices\": [";
  for (std::size_t i = 0; i < a.choices.size(); ++i) {
    if (i != 0) os << ", ";
    os << a.choices[i];
  }
  os << "]\n}\n";
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open artifact file: " + path);
  f << os.str();
  f.flush();
  if (!f) throw std::runtime_error("failed writing artifact: " + path);
  return path;
}

bool read_artifact(const std::string& path, ReproArtifact* out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string s = buf.str();

  ReproArtifact a;
  std::uint64_t md = 0;
  if (!parse_string(s, "lock", &a.lock)) return false;
  if (!parse_string(s, "policy", &a.policy)) return false;
  if (!parse_u64(s, "seed", &a.seed)) return false;
  if (!parse_int(s, "threads", &a.workload.threads)) return false;
  if (!parse_int(s, "writers", &a.workload.writers)) return false;
  if (!parse_int(s, "ops_per_thread", &a.workload.ops_per_thread)) return false;
  if (!parse_int(s, "cells", &a.workload.cells)) return false;
  if (!parse_u64(s, "max_decisions", &md)) return false;
  a.workload.max_decisions = static_cast<std::size_t>(md);
  if (!parse_int(s, "no_progress_bound", &a.workload.no_progress_bound))
    return false;
  // Deadline fields are optional (absent in artifacts written before the
  // timed workloads existed); defaults mean "untimed".
  parse_bool(s, "timed_reads", &a.workload.timed_reads);
  parse_u64_array(s, "read_deadlines", &a.workload.read_deadlines);
  // Snapshot fields are likewise optional; defaults mean "no snapshots".
  parse_bool(s, "snapshot_reads", &a.workload.snapshot_reads);
  std::uint64_t rv = 0;
  if (parse_u64(s, "retain_versions", &rv)) {
    a.workload.retain_versions = static_cast<std::uint32_t>(rv);
  }
  if (!parse_string(s, "violation", &a.violation)) return false;
  if (!parse_int_array(s, "choices", &a.choices)) return false;
  *out = a;
  return true;
}

}  // namespace sprwl::check
