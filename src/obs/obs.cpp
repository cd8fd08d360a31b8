#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

namespace tabby::obs {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void json_escape_into(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
}

/// Microseconds with fixed 3-decimal precision — Chrome's "ts"/"dur" unit —
/// rendered without locale involvement.
std::string micros(std::uint64_t ns) {
  std::uint64_t thousandths_us = ns;  // 1 ns = 1/1000 us
  std::string out = std::to_string(thousandths_us / 1000);
  std::uint64_t frac = thousandths_us % 1000;
  out += '.';
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  return out;
}

std::string millis_human(std::uint64_t ns) {
  std::uint64_t us = ns / 1000;
  std::string out = std::to_string(us / 1000);
  out += '.';
  std::uint64_t frac = us % 1000;
  out += static_cast<char>('0' + frac / 100);
  out += static_cast<char>('0' + (frac / 10) % 10);
  out += static_cast<char>('0' + frac % 10);
  out += "ms";
  return out;
}

}  // namespace

/// One thread's recording destination. Registered (under the registry mutex)
/// on the thread's first recording or naming call, then appended to without
/// any lock. Buffers are owned by the registry, never by the thread, so a
/// worker that exits before flush() leaves its records readable.
struct Tracer::ThreadBuffer {
  std::uint32_t tid = 0;
  std::string name;
  bool named = false;  // set_thread_name() was called (vs the default name)
  std::vector<SpanRecord> spans;
  std::vector<std::pair<const char*, std::uint64_t>> counters;  // name -> accumulated delta
};

namespace {

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Tracer::ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

thread_local Tracer::ThreadBuffer* t_buffer = nullptr;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (t_buffer == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->tid = static_cast<std::uint32_t>(reg.buffers.size());
    buffer->name = "thread-" + std::to_string(buffer->tid);
    t_buffer = buffer.get();
    reg.buffers.push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::uint64_t Tracer::now_ns() const { return steady_now_ns() - epoch_ns_; }

void Tracer::enable() {
  // The enabling thread is the pipeline's orchestrator: register it now (so
  // it owns a track even if it never records) and call its track "main"
  // unless it chose a name. Registration order is otherwise arbitrary —
  // ThreadPool workers may have registered first.
  ThreadBuffer& mine = local_buffer();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (!mine.named) mine.name = "main";
  for (auto& buffer : reg.buffers) {
    buffer->spans.clear();
    buffer->counters.clear();
  }
  epoch_ns_ = steady_now_ns();
  enabled_flag_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_flag_.store(false, std::memory_order_relaxed); }

void Tracer::record_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
                         std::vector<Attr> attrs) {
  ThreadBuffer& buffer = local_buffer();
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.dur_ns = dur_ns;
  record.tid = buffer.tid;
  record.attrs = std::move(attrs);
  buffer.spans.push_back(std::move(record));
}

void Tracer::record_counter(const char* name, std::uint64_t delta) {
  ThreadBuffer& buffer = local_buffer();
  for (auto& [existing, value] : buffer.counters) {
    // Counter names are static strings, so pointer equality is the common
    // fast case; fall back to content comparison across translation units.
    if (existing == name || std::string_view(existing) == name) {
      value += delta;
      return;
    }
  }
  buffer.counters.emplace_back(name, delta);
}

void Tracer::name_current_thread(std::string name) {
  ThreadBuffer& buffer = local_buffer();
  // flush() and enable() read the name from other threads under the
  // registry mutex; a pool worker names itself at startup, unordered
  // against either, so the write takes the same lock.
  std::lock_guard<std::mutex> lock(registry().mutex);
  buffer.name = std::move(name);
  buffer.named = true;
}

void set_thread_name(std::string name) {
  Tracer::instance().name_current_thread(std::move(name));
}

TraceReport Tracer::flush() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  TraceReport report;
  std::map<std::string, std::uint64_t> totals;
  for (auto& buffer : reg.buffers) {
    report.thread_names.push_back(buffer->name);
    for (SpanRecord& span : buffer->spans) report.spans.push_back(std::move(span));
    buffer->spans.clear();
    for (const auto& [name, value] : buffer->counters) totals[name] += value;
    buffer->counters.clear();
  }
  std::stable_sort(report.spans.begin(), report.spans.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.dur_ns > b.dur_ns;  // parents before children
                   });
  for (auto& [name, value] : totals) report.counters.push_back({name, value});
  return report;
}

std::string TraceReport::to_chrome_json() const {
  std::string out = "[";
  bool first = true;
  auto emit = [&out, &first](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event;
  };

  for (std::size_t tid = 0; tid < thread_names.size(); ++tid) {
    std::string event = R"({"ph":"M","pid":1,"tid":)" + std::to_string(tid) +
                        R"(,"name":"thread_name","args":{"name":")";
    json_escape_into(event, thread_names[tid]);
    event += "\"}}";
    emit(event);
  }

  std::uint64_t end_ns = 0;
  for (const SpanRecord& span : spans) {
    end_ns = std::max(end_ns, span.start_ns + span.dur_ns);
    std::string event = R"({"ph":"X","pid":1,"tid":)" + std::to_string(span.tid) +
                        R"(,"ts":)" + micros(span.start_ns) + R"(,"dur":)" + micros(span.dur_ns) +
                        R"(,"cat":"tabby","name":")";
    json_escape_into(event, span.name);
    event += "\"";
    if (!span.attrs.empty()) {
      event += R"(,"args":{)";
      for (std::size_t i = 0; i < span.attrs.size(); ++i) {
        if (i > 0) event += ",";
        event += "\"";
        json_escape_into(event, span.attrs[i].key);
        event += "\":\"";
        json_escape_into(event, span.attrs[i].value);
        event += "\"";
      }
      event += "}";
    }
    event += "}";
    emit(event);
  }

  // Counter totals as one "C" sample each at the trace end, so Perfetto
  // renders the final value of every counter track.
  for (const CounterTotal& counter : counters) {
    std::string event = R"({"ph":"C","pid":1,"tid":0,"ts":)" + micros(end_ns) + R"(,"name":")";
    json_escape_into(event, counter.name);
    event += R"(","args":{"value":)" + std::to_string(counter.value) + "}}";
    emit(event);
  }

  out += "\n]\n";
  return out;
}

std::string TraceReport::metrics_summary() const {
  // Aggregate spans by name, keeping first-appearance order (pipeline order).
  struct Aggregate {
    std::string name;
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::vector<Aggregate> aggregates;
  for (const SpanRecord& span : spans) {
    auto it = std::find_if(aggregates.begin(), aggregates.end(),
                           [&span](const Aggregate& a) { return a.name == span.name; });
    if (it == aggregates.end()) {
      aggregates.push_back({span.name, 1, span.dur_ns});
    } else {
      ++it->count;
      it->total_ns += span.dur_ns;
    }
  }

  std::size_t width = 0;
  for (const Aggregate& a : aggregates) width = std::max(width, a.name.size());

  std::string out;
  for (const Aggregate& a : aggregates) {
    out += "metrics: span    " + a.name + std::string(width - a.name.size(), ' ') +
           "  n=" + std::to_string(a.count) + "  total=" + millis_human(a.total_ns) + "\n";
  }
  // Counter lines are deliberately unpadded "name = value": trivially
  // greppable and stable under new counters joining the catalog.
  for (const CounterTotal& c : counters) {
    out += "metrics: counter " + c.name + " = " + std::to_string(c.value) + "\n";
  }
  return out;
}

double TraceReport::total_seconds(const std::string& name) const {
  std::uint64_t total = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == name) total += span.dur_ns;
  }
  return static_cast<double>(total) / 1e9;
}

std::uint64_t TraceReport::counter(const std::string& name) const {
  for (const CounterTotal& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace tabby::obs
