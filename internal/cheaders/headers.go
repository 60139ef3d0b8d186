// Package cheaders provides the C standard library headers served to
// #include by the preprocessor. The function prototypes are the rows of
// interp.Libc, the library the interpreter implements natively; the
// constants match the LP64 model (the model of the paper's experiments).
// Programs compiled under other models should avoid limits.h or define
// their own bounds.
package cheaders

import (
	"strings"

	"repro/internal/cpp"
	"repro/internal/interp"
)

// resolver is built once, at package init: every header is scanned then
// and its tokens are shared read-only by every preprocessor.
var resolver = cpp.NewMapResolver(Headers)

// Resolver serves the built-in headers. Every call returns the same
// immutable resolver, safe for concurrent use.
func Resolver() cpp.Resolver { return resolver }

// Headers maps header names to their contents. Resolver scans it at
// package init; later changes to it are not seen.
var Headers = map[string]string{
	"stddef.h": `#ifndef _STDDEF_H
#define _STDDEF_H
#define NULL ((void*)0)
typedef unsigned long size_t;
typedef long ptrdiff_t;
typedef int wchar_t;
#define offsetof(type, member) ((size_t)&(((type*)0)->member))
#endif
`,
	"stdbool.h": `#ifndef _STDBOOL_H
#define _STDBOOL_H
#define bool _Bool
#define true 1
#define false 0
#define __bool_true_false_are_defined 1
#endif
`,
	"stdio.h": `#ifndef _STDIO_H
#define _STDIO_H
#include "stddef.h"
typedef int FILE;
#define stdin  ((FILE*)1)
#define stdout ((FILE*)2)
#define stderr ((FILE*)3)
#define EOF (-1)
` + prototypes("stdio.h") + `#endif
`,
	"stdlib.h": `#ifndef _STDLIB_H
#define _STDLIB_H
#include "stddef.h"
#define EXIT_SUCCESS 0
#define EXIT_FAILURE 1
#define RAND_MAX 2147483647
` + prototypes("stdlib.h") + `#endif
`,
	"string.h": `#ifndef _STRING_H
#define _STRING_H
#include "stddef.h"
` + prototypes("string.h") + `#endif
`,
	"ctype.h": `#ifndef _CTYPE_H
#define _CTYPE_H
` + prototypes("ctype.h") + `#endif
`,
	"assert.h": `#ifndef _ASSERT_H
#define _ASSERT_H
` + prototypes("assert.h") + `#ifdef NDEBUG
#define assert(e) ((void)0)
#else
#define assert(e) ((e) ? (void)0 : __assert_fail(#e, __FILE__, __LINE__))
#endif
#endif
`,
	"limits.h": `#ifndef _LIMITS_H
#define _LIMITS_H
#define CHAR_BIT 8
#define SCHAR_MIN (-128)
#define SCHAR_MAX 127
#define UCHAR_MAX 255
#define CHAR_MIN SCHAR_MIN
#define CHAR_MAX SCHAR_MAX
#define SHRT_MIN (-32767-1)
#define SHRT_MAX 32767
#define USHRT_MAX 65535
#define INT_MIN (-2147483647-1)
#define INT_MAX 2147483647
#define UINT_MAX 4294967295u
#define LONG_MIN (-9223372036854775807L-1)
#define LONG_MAX 9223372036854775807L
#define ULONG_MAX 18446744073709551615uL
#define LLONG_MIN (-9223372036854775807LL-1)
#define LLONG_MAX 9223372036854775807LL
#define ULLONG_MAX 18446744073709551615uLL
#endif
`,
	"stdint.h": `#ifndef _STDINT_H
#define _STDINT_H
typedef signed char int8_t;
typedef unsigned char uint8_t;
typedef short int16_t;
typedef unsigned short uint16_t;
typedef int int32_t;
typedef unsigned int uint32_t;
typedef long int64_t;
typedef unsigned long uint64_t;
typedef long intptr_t;
typedef unsigned long uintptr_t;
#define INT8_MAX 127
#define INT8_MIN (-128)
#define UINT8_MAX 255
#define INT16_MAX 32767
#define INT16_MIN (-32768)
#define UINT16_MAX 65535
#define INT32_MAX 2147483647
#define INT32_MIN (-2147483647-1)
#define UINT32_MAX 4294967295u
#define INT64_MAX 9223372036854775807L
#define INT64_MIN (-9223372036854775807L-1)
#define UINT64_MAX 18446744073709551615uL
#endif
`,
	"float.h": `#ifndef _FLOAT_H
#define _FLOAT_H
#define FLT_MAX 3.402823466e+38f
#define FLT_MIN 1.175494351e-38f
#define DBL_MAX 1.7976931348623158e+308
#define DBL_MIN 2.2250738585072014e-308
#define FLT_EPSILON 1.192092896e-07f
#define DBL_EPSILON 2.2204460492503131e-16
#endif
`,
}

// prototypes renders the prototype lines of the Libc rows declared in
// header, in table order.
func prototypes(header string) string {
	var b strings.Builder
	for _, f := range interp.Libc {
		if f.Header == header {
			b.WriteString(f.Proto)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
