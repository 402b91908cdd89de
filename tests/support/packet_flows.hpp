/// \file packet_flows.hpp
/// The mailbox's packet flows as the Chrome-trace buffer holds them
/// (obs/trace.hpp): a flush opens one flow per packet ('s') and the
/// receiver closes it ('f') after dedup, both under the packet's id.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "obs/trace.hpp"

namespace sfg::test {

/// One flow's 's' and 'f' counts and the rank rows (pids) they sit on.
struct packet_flow {
  int starts = 0;
  int ends = 0;
  std::int64_t start_pid = -1;
  std::int64_t end_pid = -1;
};

/// Every flow in the trace buffer, by id; each flow event must be a
/// mailbox packet's.
inline std::map<std::uint64_t, packet_flow> traced_packet_flows() {
  std::map<std::uint64_t, packet_flow> flows;
  const obs::json doc = obs::trace_to_json();
  const obs::json& events = *doc.find("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::json& ev = events.at(i);
    const std::string ph = ev.find("ph")->as_string();
    if (ph != "s" && ph != "f") continue;
    EXPECT_EQ(ev.find("name")->as_string(), "mailbox.packet");
    EXPECT_EQ(ev.find("cat")->as_string(), "mailbox");
    const obs::json* id = ev.find("id");
    EXPECT_NE(id, nullptr) << "flow event without id";
    if (id == nullptr) continue;
    auto& fl = flows[id->as_u64()];
    ++(ph == "s" ? fl.starts : fl.ends);
    (ph == "s" ? fl.start_pid : fl.end_pid) = ev.find("pid")->as_i64();
  }
  return flows;
}

}  // namespace sfg::test
