#include "obs/telemetry.hpp"

namespace spacecdn::obs {

TelemetrySinks set_telemetry(const TelemetrySinks& sinks) noexcept {
  const TelemetrySinks previous = detail::g_sinks;
  detail::g_sinks = sinks;
  return previous;
}

}  // namespace spacecdn::obs
