#include "gpusim/cost_model.hpp"

namespace sepo::gpusim {

double compute_time(const MachineDesc& m, const StatsSnapshot& s) {
  double t = 0.0;
  t += static_cast<double>(s.work_units) * m.sec_per_work_unit;
  t += static_cast<double>(s.hash_ops) * m.sec_per_hash_op;
  t += static_cast<double>(s.key_compare_bytes) * m.sec_per_compare_byte;
  t += static_cast<double>(s.chain_links_walked) * m.sec_per_chain_link;
  t += static_cast<double>(s.alloc_ops) * m.sec_per_alloc;
  t += static_cast<double>(s.lock_acquires) * m.sec_per_lock;
  t += static_cast<double>(s.divergent_units) * m.sec_per_divergent_unit;
  t += static_cast<double>(s.kernel_launches) * m.sec_per_kernel_launch;
  return t;
}

double serialization_time(const MachineDesc& m, const SerializationInputs& s) {
  const double fair_share =
      static_cast<double>(s.total_lock_ops) / m.concurrency;
  const double hot = static_cast<double>(s.max_same_lock_ops);
  double t = 0.0;
  if (hot > fair_share)
    t += (hot - fair_share) * m.sec_per_critical_section;
  t += static_cast<double>(s.serial_atomic_ops) * m.sec_per_serial_atomic;
  return t;
}

}  // namespace sepo::gpusim
