#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace dms::e2e {

int Tracer::open(std::string name, std::int64_t id) {
  const int index = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now(), 0.0, parent, id});
  child_seconds_.push_back(0.0);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer::close: spans must close innermost first");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now();
  if (s.parent >= 0) child_seconds_[static_cast<std::size_t>(s.parent)] += s.seconds();
}

double Tracer::self_seconds(int index) const {
  const auto i = static_cast<std::size_t>(index);
  return spans_[i].seconds() - child_seconds_[i];
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers chosen by the benchmark; they need no
    // JSON escaping.
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"id\": %lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), s.start * 1e6,
                 s.seconds() * 1e6, i, s.parent, static_cast<long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dms::e2e
