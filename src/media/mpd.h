// MPD-style manifest serialization.
//
// Sperke follows the DASH paradigm (§3 / Figure 2), so the content
// description travels as a Media Presentation Description. Because chunk
// sizes are a deterministic function of VideoModelConfig (seeded), the MPD
// carries the full config plus the ladder; a client reconstructs an exact
// replica of the server's VideoModel from it.
//
// The format is a small XML dialect:
//
//   <MPD duration="120" chunkDuration="1" projection="equirectangular"
//        tileRows="4" tileCols="6" svcOverhead="0.1" complexitySigma="0.25"
//        complexityRho="0.7" areaMix="0.5" seed="7">
//     <Representation kbps="1000"/>
//     <Representation kbps="2500"/>
//   </MPD>
#pragma once

#include <string>

#include "media/video_model.h"

namespace sperke::media {

// Serialize a video's configuration as an MPD document.
[[nodiscard]] std::string write_mpd(const VideoModelConfig& config);

// Parse an MPD document back into a config. Throws std::runtime_error on
// malformed documents (unknown root, missing/duplicate attributes, no
// representations, non-numeric or non-finite values, a projection other
// than equirectangular, and tile counts or a seed that are not exact
// in-range integers).
[[nodiscard]] VideoModelConfig parse_mpd(const std::string& text);

}  // namespace sperke::media
