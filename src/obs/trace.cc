#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace assess {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

namespace {

void AppendAttrValueJson(std::string* out, const TraceAttr& attr) {
  char buf[64];
  switch (attr.kind) {
    case TraceAttr::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, attr.int_value);
      out->append(buf);
      break;
    case TraceAttr::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%.17g", attr.double_value);
      out->append(buf);
      break;
    case TraceAttr::Kind::kString:
      out->push_back('"');
      AppendJsonEscaped(out, attr.string_value);
      out->push_back('"');
      break;
  }
}

void AppendAttrsJson(std::string* out, const std::vector<TraceAttr>& attrs) {
  out->push_back('{');
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('"');
    AppendJsonEscaped(out, attrs[i].key);
    out->append("\":");
    AppendAttrValueJson(out, attrs[i]);
  }
  out->push_back('}');
}

/// Renders an attribute value for the text tree (unquoted strings).
void AppendAttrValueText(std::string* out, const TraceAttr& attr) {
  char buf[64];
  switch (attr.kind) {
    case TraceAttr::Kind::kInt:
      std::snprintf(buf, sizeof(buf), "%" PRId64, attr.int_value);
      out->append(buf);
      break;
    case TraceAttr::Kind::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", attr.double_value);
      out->append(buf);
      break;
    case TraceAttr::Kind::kString:
      out->append(attr.string_value);
      break;
  }
}

}  // namespace

TraceContext::TraceContext() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceContext::Now() const {
  if (now_fn_) return now_fn_();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t TraceContext::ThreadIndexLocked() {
  auto [it, inserted] = thread_index_.emplace(
      std::this_thread::get_id(), static_cast<int32_t>(thread_index_.size()));
  (void)inserted;
  return it->second;
}

TraceContext::SpanId TraceContext::StartSpan(std::string_view name,
                                             SpanId parent) {
  // Read the clock outside the lock so contended traces don't serialize
  // timestamp acquisition; span start order in the vector may then differ
  // from timestamp order across threads, which every consumer tolerates.
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanNode node;
  node.id = static_cast<SpanId>(nodes_.size());
  node.parent = parent;
  node.name.assign(name.data(), name.size());
  node.thread = ThreadIndexLocked();
  node.start_ns = now;
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void TraceContext::EndSpan(SpanId id) {
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return;
  nodes_[id].duration_ns = now - nodes_[id].start_ns;
}

void TraceContext::AddInt(SpanId id, std::string_view key, int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return;
  TraceAttr attr;
  attr.key.assign(key.data(), key.size());
  attr.kind = TraceAttr::Kind::kInt;
  attr.int_value = value;
  nodes_[id].attrs.push_back(std::move(attr));
}

void TraceContext::AddDouble(SpanId id, std::string_view key, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return;
  TraceAttr attr;
  attr.key.assign(key.data(), key.size());
  attr.kind = TraceAttr::Kind::kDouble;
  attr.double_value = value;
  nodes_[id].attrs.push_back(std::move(attr));
}

void TraceContext::AddString(SpanId id, std::string_view key,
                             std::string_view value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= nodes_.size()) return;
  TraceAttr attr;
  attr.key.assign(key.data(), key.size());
  attr.kind = TraceAttr::Kind::kString;
  attr.string_value.assign(value.data(), value.size());
  nodes_[id].attrs.push_back(std::move(attr));
}

size_t TraceContext::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
}

std::vector<SpanNode> TraceContext::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_;
}

double TraceContext::SpanSeconds(std::string_view name, SpanId root) const {
  std::vector<SpanNode> nodes = Snapshot();
  // in_subtree[i]: node i is `root` or a descendant of it. Parents always
  // precede children in the vector (a child's id is assigned after its
  // parent's), so one forward pass suffices.
  std::vector<char> in_subtree(nodes.size(), root == kNoSpan ? 1 : 0);
  if (root != kNoSpan) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].id == root) {
        in_subtree[i] = 1;
      } else if (nodes[i].parent >= 0 &&
                 static_cast<size_t>(nodes[i].parent) < i &&
                 in_subtree[nodes[i].parent]) {
        in_subtree[i] = 1;
      }
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!in_subtree[i] || nodes[i].duration_ns < 0) continue;
    if (nodes[i].name == name) total += nodes[i].duration_ns * 1e-9;
  }
  return total;
}

std::string TraceContext::ToJson() const {
  std::vector<SpanNode> nodes = Snapshot();
  std::string out = "{\"trace\":{\"spans\":[";
  char buf[160];
  for (size_t i = 0; i < nodes.size(); ++i) {
    const SpanNode& node = nodes[i];
    if (i > 0) out.push_back(',');
    out.append("{\"id\":");
    std::snprintf(buf, sizeof(buf),
                  "%d,\"parent\":%d,\"name\":", node.id, node.parent);
    out.append(buf);
    out.push_back('"');
    AppendJsonEscaped(&out, node.name);
    out.push_back('"');
    std::snprintf(buf, sizeof(buf),
                  ",\"thread\":%d,\"start_ns\":%" PRId64
                  ",\"duration_ns\":%" PRId64 ",\"attrs\":",
                  node.thread, node.start_ns, node.duration_ns);
    out.append(buf);
    AppendAttrsJson(&out, node.attrs);
    out.push_back('}');
  }
  out.append("]}}");
  return out;
}

std::string TraceContext::ToChromeTrace() const {
  std::vector<SpanNode> nodes = Snapshot();
  std::string out = "{\"traceEvents\":[";
  char buf[160];
  bool first = true;
  for (const SpanNode& node : nodes) {
    if (node.duration_ns < 0) continue;  // open spans have no complete event
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, node.name);
    // ph "X": complete event; ts/dur are microseconds.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d,\"args\":",
                  node.start_ns / 1e3, node.duration_ns / 1e3, node.thread);
    out.append(buf);
    AppendAttrsJson(&out, node.attrs);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

std::string TraceContext::ToTreeString() const {
  std::vector<SpanNode> nodes = Snapshot();
  // Children of each node, in recording order.
  std::vector<std::vector<int32_t>> children(nodes.size());
  std::vector<int32_t> roots;
  for (const SpanNode& node : nodes) {
    if (node.parent >= 0 && static_cast<size_t>(node.parent) < nodes.size()) {
      children[node.parent].push_back(node.id);
    } else {
      roots.push_back(node.id);
    }
  }
  std::string out;
  // Iterative DFS, preserving sibling order.
  std::vector<std::pair<int32_t, int>> stack;  // (id, depth), pushed reversed
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  char buf[64];
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const SpanNode& node = nodes[id];
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out.append(node.name);
    if (node.duration_ns >= 0) {
      std::snprintf(buf, sizeof(buf), " %.3fms", node.duration_ns / 1e6);
      out.append(buf);
    } else {
      out.append(" (open)");
    }
    if (node.thread != 0) {
      std::snprintf(buf, sizeof(buf), " t%d", node.thread);
      out.append(buf);
    }
    if (!node.attrs.empty()) {
      out.append(" {");
      for (size_t i = 0; i < node.attrs.size(); ++i) {
        if (i > 0) out.append(", ");
        out.append(node.attrs[i].key);
        out.push_back('=');
        AppendAttrValueText(&out, node.attrs[i]);
      }
      out.push_back('}');
    }
    out.push_back('\n');
    const auto& kids = children[id];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back({*it, depth + 1});
    }
  }
  return out;
}

void TraceContext::SetClockForTest(std::function<int64_t()> now_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  now_fn_ = std::move(now_ns);
}

}  // namespace assess
