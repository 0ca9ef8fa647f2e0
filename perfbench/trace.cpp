#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer(std::vector<int> tids, std::vector<std::string> names)
    : tids_(std::move(tids)),
      names_(std::move(names)),
      counters_(names_.size(), 0),
      tracks_(names_.size()) {}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (int t = 0; t < num_tracks(); ++t) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 tids_[static_cast<std::size_t>(t)], names_[static_cast<std::size_t>(t)].c_str());
    for (const Span& s : track(t)) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"job\":%d}}",
                   s.name, tids_[static_cast<std::size_t>(t)], 1e-3 * static_cast<double>(s.start_ns),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.job);
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace perfbench
