// AVX-512 tier of the I-BERT row kernels: the shared row bodies
// (ibert/ibert_row_kernel.h) compiled with -mavx512f -mavx512dq. DQ adds
// the 64-bit lane multiply (vpmullq) and the int64 <-> float/double
// conversions (vcvttpd2qq, vcvtqq2ps, vcvtqq2pd) that let the integer
// pipelines run eight int64 lanes per zmm register.
//
// This TU is built only when the toolchain supports both flags; the
// dispatch in ibert_kernels.cpp never calls into it unless CPUID reports
// AVX-512F and AVX-512DQ (see simd::detected_simd_tier).
#include "ibert/ibert_row_kernel.h"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__)
#error "ibert_kernels_avx512.cpp must be compiled with -mavx512f -mavx512dq"
#endif

namespace nnlut::ibert {

const detail::RowKernels& row_kernels_avx512() { return detail::kRowKernels; }

}  // namespace nnlut::ibert
