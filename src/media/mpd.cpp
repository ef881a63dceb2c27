#include "media/mpd.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sperke::media {
namespace {

// --- tiny XML subset -------------------------------------------------------
// Supports: one root element, self-closing children, double-quoted
// attributes, and whitespace. No text nodes, comments, or namespaces.

struct Element {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::vector<Element> children;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Element parse_document() {
    skip_whitespace();
    Element root = parse_element();
    skip_whitespace();
    if (pos_ != text_.size()) throw std::runtime_error("MPD: trailing content");
    return root;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) throw std::runtime_error("MPD: unexpected end");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) {
      throw std::runtime_error(std::string("MPD: expected '") + ch + "'");
    }
    ++pos_;
  }

  std::string parse_name() {
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-')) {
      name += text_[pos_++];
    }
    if (name.empty()) throw std::runtime_error("MPD: expected a name");
    return name;
  }

  Element parse_element() {
    expect('<');
    Element element;
    element.name = parse_name();
    // Attributes.
    for (;;) {
      skip_whitespace();
      const char ch = peek();
      if (ch == '/' || ch == '>') break;
      const std::string key = parse_name();
      skip_whitespace();
      expect('=');
      skip_whitespace();
      expect('"');
      std::string value;
      while (peek() != '"') value += text_[pos_++];
      expect('"');
      if (!element.attributes.emplace(key, value).second) {
        throw std::runtime_error("MPD: duplicate attribute " + key);
      }
    }
    if (peek() == '/') {  // self-closing
      ++pos_;
      expect('>');
      return element;
    }
    expect('>');
    // Children until the closing tag.
    for (;;) {
      skip_whitespace();
      if (peek() == '<' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
        pos_ += 2;
        const std::string closing = parse_name();
        if (closing != element.name) {
          throw std::runtime_error("MPD: mismatched closing tag " + closing);
        }
        skip_whitespace();
        expect('>');
        return element;
      }
      element.children.push_back(parse_element());
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::string require_string(const Element& element, const std::string& key) {
  const auto it = element.attributes.find(key);
  if (it == element.attributes.end()) {
    throw std::runtime_error("MPD: missing attribute " + key);
  }
  return it->second;
}

double require_number(const Element& element, const std::string& key) {
  const std::string text = require_string(element, key);
  double value = 0.0;
  try {
    std::size_t consumed = 0;
    value = std::stod(text, &consumed);
    if (consumed != text.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::runtime_error("MPD: non-numeric attribute " + key);
  }
  if (!std::isfinite(value)) throw std::runtime_error("MPD: non-finite attribute " + key);
  return value;
}

// An exact decimal integer in [0, max]: digits only, so no sign, fraction,
// exponent or whitespace ever reaches (or wraps inside) std::stoull.
std::uint64_t require_integer(const Element& element, const std::string& key,
                              std::uint64_t max) {
  const std::string text = require_string(element, key);
  if (text.empty() || !std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    throw std::runtime_error("MPD: non-integer attribute " + key);
  }
  std::uint64_t value = 0;
  try {
    value = std::stoull(text);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("MPD: attribute " + key + " out of range");
  }
  if (value > max) throw std::runtime_error("MPD: attribute " + key + " out of range");
  return value;
}

std::string format_number(double value) {
  std::ostringstream os;
  os.precision(12);
  os << value;
  return os.str();
}

}  // namespace

std::string write_mpd(const VideoModelConfig& config) {
  std::ostringstream os;
  os << "<MPD duration=\"" << format_number(config.duration_s)
     << "\" chunkDuration=\"" << format_number(config.chunk_duration_s)
     << "\" projection=\"equirectangular\" tileRows=\"" << config.tile_rows
     << "\" tileCols=\"" << config.tile_cols
     << "\" svcOverhead=\"" << format_number(config.svc_overhead)
     << "\" complexitySigma=\"" << format_number(config.complexity_sigma)
     << "\" complexityRho=\"" << format_number(config.complexity_rho)
     << "\" areaMix=\"" << format_number(config.area_mix)
     << "\" seed=\"" << config.seed << "\">\n";
  for (QualityLevel q = 0; q < config.ladder.levels(); ++q) {
    os << "  <Representation kbps=\""
       << format_number(config.ladder.panorama_kbps(q)) << "\"/>\n";
  }
  os << "</MPD>\n";
  return os.str();
}

VideoModelConfig parse_mpd(const std::string& text) {
  const Element root = Parser(text).parse_document();
  if (root.name != "MPD") throw std::runtime_error("MPD: root must be <MPD>");

  std::vector<double> ladder;
  for (const Element& child : root.children) {
    if (child.name != "Representation") {
      throw std::runtime_error("MPD: unexpected element <" + child.name + ">");
    }
    ladder.push_back(require_number(child, "kbps"));
  }
  if (ladder.empty()) throw std::runtime_error("MPD: no representations");

  VideoModelConfig config;
  config.duration_s = require_number(root, "duration");
  config.chunk_duration_s = require_number(root, "chunkDuration");
  if (require_string(root, "projection") != "equirectangular") {
    throw std::runtime_error("MPD: projection must be equirectangular");
  }
  config.tile_rows = static_cast<int>(require_integer(root, "tileRows", INT_MAX));
  config.tile_cols = static_cast<int>(require_integer(root, "tileCols", INT_MAX));
  config.svc_overhead = require_number(root, "svcOverhead");
  config.complexity_sigma = require_number(root, "complexitySigma");
  config.complexity_rho = require_number(root, "complexityRho");
  config.area_mix = require_number(root, "areaMix");
  config.seed = require_integer(root, "seed", UINT64_MAX);
  config.ladder = QualityLadder(std::move(ladder));
  return config;
}

}  // namespace sperke::media
