// Runtime ISA dispatch for hot kernels.
//
// KW_TARGET_CLONES marks a function for GCC/Clang function multi-versioning:
// the compiler emits a portable baseline clone plus an x86-64-v3-class clone
// (AVX2 + BMI2 -- flexible-register MULX is what the F_{2^61-1} multiply
// chains want) and installs an ifunc resolver that picks per CPU at load
// time.  The build stays portable; no -march flag required.
//
// Disabled under sanitizers (ifunc resolvers run before the ASan runtime is
// ready) and on toolchains without the attribute, where it expands to
// nothing and the baseline code is used everywhere.
#ifndef KW_UTIL_HOT_DISPATCH_H
#define KW_UTIL_HOT_DISPATCH_H

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KW_NO_TARGET_CLONES_ 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KW_NO_TARGET_CLONES_ 1
#endif
#endif

// GCC only: clang's target_clones dialect has lagged on "arch=" strings
// across the versions our CI meets, and the baseline clone is what its
// builds would pick anyway.
#if !defined(KW_NO_TARGET_CLONES_) && defined(__x86_64__) && \
    defined(__gnu_linux__) && defined(__GNUC__) && !defined(__clang__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define KW_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
#endif

#ifndef KW_TARGET_CLONES
#define KW_TARGET_CLONES
#endif

#endif  // KW_UTIL_HOT_DISPATCH_H
