#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/file_io.hpp"
#include "common/log.hpp"

namespace fmm {

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return std::string(buf);
}

std::string format_ratio(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2fx", value);
  return std::string(buf);
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  FMM_CHECK(!header_.empty());
}

void Table::begin_row() {
  check_row_complete();
  rows_.emplace_back();
  rows_.back().reserve(header_.size());
}

void Table::check_row_complete() const {
  if (!rows_.empty()) {
    FMM_CHECK_MSG(rows_.back().size() == header_.size(),
                  "row has " << rows_.back().size() << " cells, expected "
                             << header_.size());
  }
}

void Table::add_cell(std::string value) {
  FMM_CHECK(!rows_.empty() && rows_.back().size() < header_.size());
  rows_.back().push_back(std::move(value));
}

void Table::add_cell(const char* value) { add_cell(std::string(value)); }
void Table::add_cell(std::int64_t value) { add_cell(std::to_string(value)); }
void Table::add_cell(std::uint64_t value) { add_cell(std::to_string(value)); }
void Table::add_cell(int value) { add_cell(std::to_string(value)); }
void Table::add_cell(double value) { add_cell(format_double(value)); }

void Table::add_row(std::vector<std::string> cells) {
  FMM_CHECK_MSG(cells.size() == header_.size(),
                "expected " << header_.size() << " cells, got " << cells.size());
  check_row_complete();
  rows_.push_back(std::move(cells));
}

void Table::print_console(std::ostream& os) const {
  check_row_complete();
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_padded = [&](const std::string& s, std::size_t w) {
    os << s;
    for (std::size_t i = s.size(); i < w; ++i) os << ' ';
  };
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) os << "  ";
    print_padded(header_[c], width[c]);
  }
  os << '\n';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) os << "  ";
    os << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << "  ";
      print_padded(row[c], width[c]);
    }
    os << '\n';
  }
}

void Table::print_markdown(std::ostream& os) const {
  check_row_complete();
  os << '|';
  for (const auto& h : header_) os << ' ' << h << " |";
  os << "\n|";
  for (std::size_t c = 0; c < header_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& row : rows_) {
    os << '|';
    for (const auto& cell : row) os << ' ' << cell << " |";
    os << '\n';
  }
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::print_csv(std::ostream& os) const {
  check_row_complete();
  for (std::size_t c = 0; c < header_.size(); ++c) {
    if (c != 0) os << ',';
    os << csv_escape(header_[c]);
  }
  os << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  }
}

void Table::write_csv_file(const std::string& path) const {
  std::ostringstream csv;
  print_csv(csv);
  write_file_checked(path, csv.str());
  FMM_LOG_INFO("wrote CSV table (" << rows_.size() << " rows) to " << path);
}

}  // namespace fmm
