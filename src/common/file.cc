#include "common/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace rtq {

Status WriteStringToFile(const std::string& path, const std::string& data) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return Status::Internal("mkdir failed: " + ec.message());
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  size_t written = std::fwrite(data.data(), 1, data.size(), f);
  bool closed = std::fclose(f) == 0;
  if (written != data.size() || !closed)
    return Status::Internal("write to " + path +
                            " failed: " + std::strerror(errno));
  return Status::Ok();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::Internal("read from " + path + " failed");
  return data;
}

}  // namespace rtq
