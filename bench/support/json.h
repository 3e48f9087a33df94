// Minimal streaming JSON builder for the machine-readable BENCH_*.json
// files the benches emit next to their human tables. Values are written in
// call order; the writer tracks open objects/arrays and inserts commas, so
// call sites stay linear:
//
//   JsonWriter j;
//   j.begin_object();
//   j.key("bench").value("tail_latency");
//   j.key("rows").begin_array();
//   ... j.begin_object(); j.key("threads").value(8); j.end_object(); ...
//   j.end_array();
//   j.end_object();
//   j.write_file("BENCH_tail.json");
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <string>

namespace sprwl::bench {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const char* k) {
    comma();
    append_string(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& value(const char* s) { return scalar([&] { append_string(s); }); }
  JsonWriter& value(const std::string& s) { return value(s.c_str()); }
  JsonWriter& value(bool b) { return scalar([&] { out_ += b ? "true" : "false"; }); }
  JsonWriter& value(double d) {
    return scalar([&] {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out_ += buf;
    });
  }
  JsonWriter& value(std::uint64_t v) {
    return scalar([&] { out_ += std::to_string(v); });
  }
  JsonWriter& value(int v) {
    return scalar([&] { out_ += std::to_string(v); });
  }

  const std::string& str() const noexcept { return out_; }

  bool write_file(const char* path) const {
    assert(depth_ == 0 && "unbalanced begin/end");
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(out_.data(), 1, out_.size(), f) == out_.size();
    std::fclose(f);
    return ok;
  }

 private:
  template <class F>
  JsonWriter& scalar(F&& emit) {
    comma();
    emit();
    just_closed_value_ = true;
    pending_value_ = false;
    return *this;
  }

  JsonWriter& open(char c) {
    comma();
    out_ += c;
    ++depth_;
    just_closed_value_ = false;
    pending_value_ = false;
    return *this;
  }

  JsonWriter& close(char c) {
    assert(depth_ > 0);
    out_ += c;
    --depth_;
    just_closed_value_ = true;
    return *this;
  }

  void comma() {
    if (pending_value_) return;  // right after key(): no separator
    if (just_closed_value_) out_ += ',';
    just_closed_value_ = false;
  }

  void append_string(const char* s) {
    out_ += '"';
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        case '\r': out_ += "\\r"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += static_cast<char>(c);
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  int depth_ = 0;
  bool just_closed_value_ = false;
  bool pending_value_ = false;
};

}  // namespace sprwl::bench
