// XML serialization of the SXNM configuration (the paper notes that the
// configuration "is itself an XML document").
//
// Format:
//
//   <sxnm-config num-threads="4">   <!-- optional; 1 = serial, 0 = auto -->
//     <checkpoint path="run.ckpt" every-pass="true"/>  <!-- optional -->
//     <candidate name="movie" path="movie_database/movies/movie"
//                window="10" use-descendants="true">
//       <paths>
//         <path id="1" rel="title/text()"/>
//         <path id="3" rel="@year"/>
//       </paths>
//       <od>
//         <entry pid="1" relevance="0.8" similarity="edit"/>
//         <entry pid="3" relevance="0.2" similarity="numeric:10"/>
//       </od>
//       <keys>
//         <key>
//           <part pid="1" order="1" pattern="K1,K2"/>
//           <part pid="3" order="2" pattern="D3,D4"/>
//         </key>
//         <key>
//           <part pid="3" order="1" pattern="D1"/>
//           <part pid="1" order="2" pattern="C1,C2"/>
//         </key>
//       </keys>
//       <classifier mode="average" od-threshold="0.75"
//                   desc-threshold="0.5" od-weight="0.5"/>
//     </candidate>
//   </sxnm-config>

#ifndef SXNM_SXNM_CONFIG_XML_H_
#define SXNM_SXNM_CONFIG_XML_H_

#include <string>
#include <string_view>
#include <vector>

#include "sxnm/config.h"
#include "util/status.h"
#include "xml/node.h"

namespace sxnm::core {

/// Parses a configuration document. The result is validated
/// (Config::Validate) before being returned. Deprecated-but-accepted
/// input (the candidate attributes `dag`, `batch-scoring` and
/// `fast-paths` and the observability attribute `profile-hz`, which are
/// parsed and ignored)
/// appends one message per attribute to `warnings` when it is non-null.
util::Result<Config> ConfigFromXml(const xml::Document& doc,
                                   std::vector<std::string>* warnings =
                                       nullptr);

/// Convenience: parse XML text, then ConfigFromXml.
util::Result<Config> ConfigFromXmlString(std::string_view text,
                                         std::vector<std::string>* warnings =
                                             nullptr);

/// Loads a configuration from a file.
util::Result<Config> ConfigFromXmlFile(const std::string& path,
                                       std::vector<std::string>* warnings =
                                           nullptr);

/// Serializes `config` into the format above. Round-trips with
/// ConfigFromXml.
xml::Document ConfigToXml(const Config& config);

/// Serialized text form.
std::string ConfigToXmlString(const Config& config);

}  // namespace sxnm::core

#endif  // SXNM_SXNM_CONFIG_XML_H_
