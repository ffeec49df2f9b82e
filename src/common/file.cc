#include "common/file.h"

#include <algorithm>
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

bool LineReader::Next() {
  while (pos_ < text_.size()) {
    size_t end = text_.find('\n', pos_);
    if (end == std::string_view::npos) end = text_.size();
    std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++line_no_;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    tokens_.clear();
    for (size_t i = 0; i < line.size();) {
      size_t start = line.find_first_not_of(" \t", i);
      if (start == std::string_view::npos) break;
      i = std::min(line.find_first_of(" \t", start), line.size());
      tokens_.push_back(line.substr(start, i - start));
    }
    if (!tokens_.empty() && tokens_[0][0] != '#') return true;
  }
  tokens_.clear();
  return false;
}

std::string LineReader::Token(size_t k) const {
  return k < tokens_.size() ? std::string(tokens_[k]) : std::string();
}

std::string LineReader::Rest(size_t n) const {
  if (n >= tokens_.size()) return "";
  const char* begin = tokens_[n].data();
  const char* end = tokens_.back().data() + tokens_.back().size();
  return std::string(begin, end);
}

}  // namespace rtq
