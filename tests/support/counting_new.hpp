/// \file counting_new.hpp
/// Counted global allocation for the allocation tests.  counting_new.cpp
/// replaces every throwing and nothrow form of operator new/delete, so a
/// binary links it once and every test in that binary runs on it; the
/// replacement only counts, behaviour is unchanged.  A test reads the
/// count before and after a steady-state loop.
#pragma once

#include <cstdint>

namespace sfg::test {

/// Global operator new calls made so far by this process.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace sfg::test
