#include "mbq/api/backend.h"

namespace mbq::api {

std::string Backend::unsupported_reason(const Workload& w,
                                        const qaoa::Angles& a,
                                        const Prepared* prep) const {
  (void)a;
  (void)prep;
  const Capabilities caps = capabilities();
  if (w.num_qubits() > caps.max_qubits)
    return name() + " handles at most " + std::to_string(caps.max_qubits) +
           " qubits, workload has " + std::to_string(w.num_qubits());
  if (w.ansatz() == AnsatzKind::MisConstrained && !caps.supports_mis_ansatz)
    return name() + " does not support the MIS ansatz";
  if ((w.ansatz() == AnsatzKind::CustomCircuit ||
       w.ansatz() == AnsatzKind::ParamCircuit) &&
      !caps.supports_custom_ansatz)
    return name() + " does not support custom ansatz circuits";
  if (caps.max_term_order > 0 && w.cost().max_order() > caps.max_term_order)
    return name() + " evaluates cost terms up to order " +
           std::to_string(caps.max_term_order) + ", workload has an order-" +
           std::to_string(w.cost().max_order()) + " term";
  if (w.entangler_noise() > 0.0 && !caps.supports_noise)
    return name() +
           " is a noiseless path and cannot execute entangler noise";
  if (w.precision() == Precision::F32 && !caps.supports_f32_storage)
    return name() +
           " computes in f64 and cannot honor f32 statevector storage";
  return {};
}

std::shared_ptr<const Prepared> Backend::prepare(const Workload& w,
                                                 const qaoa::Angles& a) const {
  (void)w;
  (void)a;
  return nullptr;
}

}  // namespace mbq::api
