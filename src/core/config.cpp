#include "core/config.hpp"

namespace gcmpi::core {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::None: return "none";
    case Algorithm::MPC: return "MPC";
    case Algorithm::ZFP: return "ZFP";
  }
  return "?";
}

CompressionConfig CompressionConfig::off() { return {}; }

CompressionConfig CompressionConfig::mpc_naive(int dimensionality) {
  CompressionConfig c;
  c.algorithm = Algorithm::MPC;
  c.mpc_dimensionality = dimensionality;
  c.use_buffer_pool = false;
  c.use_gdrcopy = false;
  c.multi_stream_partitions = false;
  c.cache_device_attributes = false;
  return c;
}

CompressionConfig CompressionConfig::mpc_opt(int dimensionality) {
  CompressionConfig c;
  c.algorithm = Algorithm::MPC;
  c.mpc_dimensionality = dimensionality;
  return c;
}

CompressionConfig CompressionConfig::zfp_naive(int rate) {
  CompressionConfig c;
  c.algorithm = Algorithm::ZFP;
  c.zfp_rate = rate;
  c.use_buffer_pool = false;
  c.use_gdrcopy = false;
  c.multi_stream_partitions = false;
  c.cache_device_attributes = false;
  return c;
}

CompressionConfig CompressionConfig::zfp_opt(int rate) {
  CompressionConfig c;
  c.algorithm = Algorithm::ZFP;
  c.zfp_rate = rate;
  return c;
}

}  // namespace gcmpi::core
