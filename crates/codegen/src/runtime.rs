//! The generic C runtime header shipped with generated programs.
//!
//! This is our stand-in for the paper's GLib dependency: generic, boxed,
//! pointer-chasing containers used by the *unspecialized* configurations
//! (void-pointer chained hash tables with function-pointer hash/equality,
//! growable vectors with one allocation per element push). Specialized
//! levels bypass all of it — that gap is precisely what Table 3 measures.
//! Also contains string helpers (paper Table 2 mappings), string
//! dictionaries, memory pools, the query timer, the RSS probe for
//! Figure 8, and the `.tbl` loaders' helpers.
//!
//! The loaders' number and date parsers accept exactly what the
//! in-process reader (`dblab_runtime::table::parse_field`) accepts and
//! exit naming the table, column and row otherwise. `dblab_parse_double` reads
//! `[-]digits[.digits]` with at most 15 significant digits as one
//! division `m / 10^frac` of two exactly representable doubles, which is
//! correctly rounded and so bit-identical to `str::parse::<f64>`
//! (Clinger's fast path; a division, never a multiplication by a
//! reciprocal), and hands the rest of the grammar to `strtod`.
//! `dblab_dict_encode` dictionary-encodes a column through a hash set of
//! its distinct values, sorting only those. The helpers are `noinline`:
//! inlined at every parse site they cost gcc time and save no run time.
//! The header is part of the build cache's key
//! ([`crate::build_cache`]), so editing it never revives a binary built
//! against the old one.

/// Contents of `dblab_runtime.h`, written next to every generated program.
pub const DBLAB_RUNTIME_H: &str = r#"
#ifndef DBLAB_RUNTIME_H
#define DBLAB_RUNTIME_H

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <stdint.h>
#include <math.h>
#include <time.h>
#include <sys/resource.h>

/* ---------------- growable vector (boxed) ---------------- */

typedef struct dblab_vec {
    void **items;
    int64_t len, cap;
} dblab_vec;

static dblab_vec *dblab_vec_new(void) {
    dblab_vec *v = (dblab_vec *)malloc(sizeof(dblab_vec));
    v->items = (void **)malloc(8 * sizeof(void *));
    v->len = 0;
    v->cap = 8;
    return v;
}

static void dblab_vec_push(dblab_vec *v, void *item) {
    if (v->len == v->cap) {
        v->cap *= 2;
        v->items = (void **)realloc(v->items, (size_t)v->cap * sizeof(void *));
    }
    v->items[v->len++] = item;
}

/* ---------------- generic chained hash table ---------------- */

typedef uint64_t (*dblab_hash_fn)(void *);
typedef int (*dblab_eq_fn)(void *, void *);

typedef struct dblab_node {
    void *key, *val;
    struct dblab_node *next;
} dblab_node;

typedef struct dblab_hash {
    dblab_node **buckets;
    int64_t nbuckets, len;
    dblab_hash_fn hash;
    dblab_eq_fn eq;
} dblab_hash;

static dblab_hash *dblab_hash_new(dblab_hash_fn h, dblab_eq_fn eq) {
    dblab_hash *m = (dblab_hash *)malloc(sizeof(dblab_hash));
    m->nbuckets = 16;
    m->len = 0;
    m->buckets = (dblab_node **)calloc((size_t)m->nbuckets, sizeof(dblab_node *));
    m->hash = h;
    m->eq = eq;
    return m;
}

static void dblab_hash_grow(dblab_hash *m) {
    int64_t nn = m->nbuckets * 2;
    dblab_node **nb = (dblab_node **)calloc((size_t)nn, sizeof(dblab_node *));
    for (int64_t i = 0; i < m->nbuckets; i++) {
        dblab_node *n = m->buckets[i];
        while (n) {
            dblab_node *nx = n->next;
            uint64_t b = m->hash(n->key) & (uint64_t)(nn - 1);
            n->next = nb[b];
            nb[b] = n;
            n = nx;
        }
    }
    free(m->buckets);
    m->buckets = nb;
    m->nbuckets = nn;
}

static void *dblab_hash_get(dblab_hash *m, void *key) {
    uint64_t b = m->hash(key) & (uint64_t)(m->nbuckets - 1);
    for (dblab_node *n = m->buckets[b]; n; n = n->next)
        if (m->eq(n->key, key)) return n->val;
    return NULL;
}

static void dblab_hash_put(dblab_hash *m, void *key, void *val) {
    if (m->len * 4 >= m->nbuckets * 3) dblab_hash_grow(m);
    uint64_t b = m->hash(key) & (uint64_t)(m->nbuckets - 1);
    dblab_node *n = (dblab_node *)malloc(sizeof(dblab_node));
    n->key = key;
    n->val = val;
    n->next = m->buckets[b];
    m->buckets[b] = n;
    m->len++;
}

/* multimap: values are dblab_vec* */
static void dblab_multimap_add(dblab_hash *m, void *key, void *val) {
    dblab_vec *v = (dblab_vec *)dblab_hash_get(m, key);
    if (!v) {
        v = dblab_vec_new();
        dblab_hash_put(m, key, v);
    }
    dblab_vec_push(v, val);
}

/* ---------------- hash / equality functions ---------------- */

static uint64_t dblab_hash_i64(int64_t x) {
    uint64_t h = (uint64_t)x;
    h ^= h >> 33; h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33; h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

static uint64_t dblab_hash_dbl(double x) {
    uint64_t bits;
    memcpy(&bits, &x, 8);
    if (bits == 0x8000000000000000ULL) bits = 0; /* -0.0 == 0.0 */
    return dblab_hash_i64((int64_t)bits);
}

static uint64_t dblab_hash_str(const char *s) {
    uint64_t h = 1469598103934665603ULL;
    for (; *s; s++) { h ^= (uint64_t)(unsigned char)*s; h *= 1099511628211ULL; }
    return h;
}

static uint64_t dblab_keyhash_int(void *k) { return dblab_hash_i64((int64_t)(intptr_t)k); }
static int dblab_keyeq_int(void *a, void *b) { return a == b; }
static uint64_t dblab_keyhash_str(void *k) { return dblab_hash_str((const char *)k); }
static int dblab_keyeq_str(void *a, void *b) {
    return strcmp((const char *)a, (const char *)b) == 0;
}

/* ---------------- string helpers (paper Table 2) ---------------- */

static int dblab_starts_with(const char *x, const char *y) {
    return strncmp(x, y, strlen(y)) == 0;
}

static int dblab_ends_with(const char *x, const char *y) {
    size_t lx = strlen(x), ly = strlen(y);
    return lx >= ly && strcmp(x + lx - ly, y) == 0;
}

/* SQL LIKE with %-wildcards only. */
static int dblab_like(const char *s, const char *pattern) {
    size_t plen = strlen(pattern);
    char *pat = (char *)malloc(plen + 1);
    memcpy(pat, pattern, plen + 1);
    int anchored_start = pattern[0] != '%';
    int anchored_end = plen > 0 && pattern[plen - 1] != '%';
    int ok = 1, first = 1;
    const char *pos = s;
    char *save = NULL;
    for (char *seg = strtok_r(pat, "%", &save); seg; seg = strtok_r(NULL, "%", &save)) {
        int last = (save == NULL || *save == '\0');
        if (first && anchored_start) {
            if (strncmp(pos, seg, strlen(seg)) != 0) { ok = 0; break; }
            pos += strlen(seg);
        } else if (last && anchored_end) {
            size_t ls = strlen(seg), lp = strlen(pos);
            if (lp < ls || strcmp(pos + lp - ls, seg) != 0) { ok = 0; break; }
            pos += lp;
        } else {
            const char *found = strstr(pos, seg);
            if (!found) { ok = 0; break; }
            pos = found + strlen(seg);
        }
        first = 0;
    }
    free(pat);
    return ok;
}

static char *dblab_substr(const char *s, int32_t start1, int32_t len) {
    size_t sl = strlen(s);
    size_t from = start1 > 0 ? (size_t)(start1 - 1) : 0;
    if (from > sl) from = sl;
    size_t n = (size_t)len;
    if (from + n > sl) n = sl - from;
    char *out = (char *)malloc(n + 1);
    memcpy(out, s + from, n);
    out[n] = '\0';
    return out;
}

/* ---------------- string dictionaries (paper 5.3) ---------------- */

typedef struct dblab_dict {
    char **values; /* sorted lexicographically */
    int32_t n;
} dblab_dict;

static int32_t dblab_dict_lookup(dblab_dict *d, const char *s) {
    int32_t lo = 0, hi = d->n - 1;
    while (lo <= hi) {
        int32_t mid = (lo + hi) / 2;
        int c = strcmp(d->values[mid], s);
        if (c == 0) return mid;
        if (c < 0) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

static int32_t dblab_dict_range_start(dblab_dict *d, const char *prefix) {
    int32_t lo = 0, hi = d->n;
    size_t pl = strlen(prefix);
    while (lo < hi) {
        int32_t mid = (lo + hi) / 2;
        if (strncmp(d->values[mid], prefix, pl) < 0) lo = mid + 1; else hi = mid;
    }
    if (lo < d->n && strncmp(d->values[lo], prefix, pl) == 0) return lo;
    return 0; /* empty range is (0, -1) */
}

static int32_t dblab_dict_range_end(dblab_dict *d, const char *prefix) {
    size_t pl = strlen(prefix);
    int32_t s = dblab_dict_range_start(d, prefix);
    if (d->n == 0 || strncmp(d->values[s], prefix, pl) != 0) return -1;
    int32_t e = s;
    while (e + 1 < d->n && strncmp(d->values[e + 1], prefix, pl) == 0) e++;
    return e;
}

static int dblab_cmp_str(const void *a, const void *b) {
    return strcmp(*(const char **)a, *(const char **)b);
}

/* Dictionary-encode n raw values in one pass (paper 5.3, at load time):
   an open-addressing set collects the distinct strings, only those are
   sorted, and each row's code is its string's rank among them. values and
   codes are what sorting all n rows and binary-searching each gives. */
static __attribute__((noinline)) dblab_dict dblab_dict_encode(char **raw, int64_t n, int32_t *codes) {
    uint64_t cap = 64;
    int64_t d = 0;
    int32_t *set = (int32_t *)malloc(cap * sizeof(int32_t));
    memset(set, -1, cap * sizeof(int32_t));
    char **seen = (char **)malloc(cap / 2 * sizeof(char *));
    uint64_t *hashes = (uint64_t *)malloc(cap / 2 * sizeof(uint64_t));
    for (int64_t i = 0; i < n; i++) {
        uint64_t h = dblab_hash_str(raw[i]), b = h & (cap - 1);
        while (set[b] >= 0 && (hashes[set[b]] != h || strcmp(seen[set[b]], raw[i]) != 0))
            b = (b + 1) & (cap - 1);
        if (set[b] < 0) {
            if ((uint64_t)d == cap / 2) {
                cap *= 2;
                free(set);
                set = (int32_t *)malloc(cap * sizeof(int32_t));
                memset(set, -1, cap * sizeof(int32_t));
                seen = (char **)realloc(seen, cap / 2 * sizeof(char *));
                hashes = (uint64_t *)realloc(hashes, cap / 2 * sizeof(uint64_t));
                for (int64_t j = 0; j < d; j++) {
                    uint64_t c = hashes[j] & (cap - 1);
                    while (set[c] >= 0) c = (c + 1) & (cap - 1);
                    set[c] = (int32_t)j;
                }
                b = h & (cap - 1);
                while (set[b] >= 0) b = (b + 1) & (cap - 1);
            }
            seen[d] = raw[i];
            hashes[d] = h;
            set[b] = (int32_t)d++;
        }
        codes[i] = set[b];
    }
    char **values = (char **)malloc((size_t)(d + 1) * sizeof(char *));
    memcpy(values, seen, (size_t)d * sizeof(char *));
    qsort(values, (size_t)d, sizeof(char *), dblab_cmp_str);
    int32_t *rank = (int32_t *)malloc((size_t)(d + 1) * sizeof(int32_t));
    for (int64_t r = 0; r < d; r++) {
        uint64_t h = dblab_hash_str(values[r]), b = h & (cap - 1);
        while (hashes[set[b]] != h || strcmp(seen[set[b]], values[r]) != 0)
            b = (b + 1) & (cap - 1);
        rank[set[b]] = (int32_t)r;
    }
    for (int64_t i = 0; i < n; i++) codes[i] = rank[codes[i]];
    free(set);
    free(seen);
    free(hashes);
    free(rank);
    dblab_dict out;
    out.values = values;
    out.n = (int32_t)d;
    return out;
}

/* ---------------- memory pools (paper App. D.1) ---------------- */

typedef struct dblab_pool {
    char *data;
    size_t elem, cap, used;
} dblab_pool;

static dblab_pool *dblab_pool_new(size_t elem, size_t cap) {
    dblab_pool *p = (dblab_pool *)malloc(sizeof(dblab_pool));
    p->elem = elem;
    p->cap = cap ? cap : 16;
    p->used = 0;
    p->data = (char *)calloc(p->cap, elem);
    return p;
}

static void *dblab_pool_alloc(dblab_pool *p) {
    if (p->used == p->cap) {
        /* Overflow fallback: chain a fresh arena twice the size (old
           pointers must stay valid, so no realloc). */
        p->cap *= 2;
        p->data = (char *)calloc(p->cap, p->elem);
        p->used = 0;
    }
    void *out = p->data + p->used * p->elem;
    p->used++;
    return out;
}

/* ---------------- instrumentation ---------------- */

static double dblab_timer_start_ms;

static double dblab_now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1000.0 + (double)ts.tv_nsec / 1e6;
}

static void dblab_timer_start(void) { dblab_timer_start_ms = dblab_now_ms(); }

static void dblab_timer_stop(void) {
    fprintf(stderr, "QUERY_TIME_MS: %.3f\n", dblab_now_ms() - dblab_timer_start_ms);
}

static void dblab_print_rusage(void) {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    fprintf(stderr, "PEAK_RSS_KB: %ld\n", ru.ru_maxrss);
}

/* ---------------- .tbl loading ---------------- */

static const char *dblab_data_dir;

/* Read a whole file; returns buffer (caller keeps) and size. The buffer
   ends in "\n|\0" past its size: a last row without its newline ends like
   every other, and a loader's scan for '|' stops inside the buffer. */
static char *dblab_read_file(const char *table, int64_t *size) {
    char path[1024];
    snprintf(path, sizeof(path), "%s/%s.tbl", dblab_data_dir, table);
    FILE *f = fopen(path, "rb");
    if (!f) {
        fprintf(stderr, "cannot open %s\n", path);
        exit(1);
    }
    fseek(f, 0, SEEK_END);
    long n = ftell(f);
    fseek(f, 0, SEEK_SET);
    char *buf = (char *)malloc((size_t)n + 3);
    if (fread(buf, 1, (size_t)n, f) != (size_t)n) {
        fprintf(stderr, "short read on %s\n", path);
        exit(1);
    }
    memcpy(buf + n, "\n|", 3);
    fclose(f);
    *size = n;
    return buf;
}

/* Rows of a .tbl buffer: its non-empty lines, the last one counted
   whether or not a '\n' ends it (the in-process reader's rule). */
static __attribute__((noinline)) int64_t dblab_count_lines(const char *buf, int64_t size) {
    int64_t lines = 0;
    const char *p = buf, *end = buf + size;
    while (p < end) {
        const char *nl = (const char *)memchr(p, '\n', (size_t)(end - p));
        if (!nl) nl = end;
        if (nl > p) lines++;
        p = nl + 1;
    }
    return lines;
}

static __attribute__((noinline, noreturn, cold)) void dblab_short_row(const char *place, int64_t row) {
    fprintf(stderr, "%s: field missing in row %lld\n", place, (long long)(row + 1));
    exit(1);
}

static __attribute__((noinline, noreturn, cold)) void dblab_bad_field(const char *place, int64_t row, const char *text, const char *type) {
    fprintf(stderr, "%s: `%s` is not a valid %s in row %lld\n", place, text, type, (long long)(row + 1));
    exit(1);
}

/* What Rust's str::parse accepts for an integer type whose largest value
   is max: [+-]digits, nothing else, within [-max - 1, max]. */
static int dblab_scan_integer(const char *s, uint64_t max, int64_t *out) {
    int neg = *s == '-';
    if (*s == '-' || *s == '+') s++;
    const char *digits = s;
    while (*s == '0') s++;
    const char *sig = s;
    uint64_t v = 0;
    while ((unsigned)(*s - '0') < 10) v = v * 10 + (uint64_t)(*s++ - '0');
    if (*s != '\0' || s == digits || s - sig > 19 || v > max + (uint64_t)neg) return 0;
    *out = neg ? (int64_t)(0 - v) : (int64_t)v;
    return 1;
}

static const double dblab_pow10[16] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
                                       1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15};

/* What Rust's str::parse::<f64> accepts and returns, finite values only.
   [+-]digits[.digits] with at most 15 significant digits is one division
   of two exactly representable doubles, m / 10^frac, hence correctly
   rounded (Clinger's fast path); the rest of the grammar
   ([+-](digits[.[digits]] | .digits)[(e|E)[+-]digits]) goes to strtod,
   which rounds correctly too. */
static int dblab_scan_double(const char *s, double *out) {
    const char *p = s;
    int neg = *p == '-';
    if (*p == '-' || *p == '+') p++;
    const char *start = p;
    while (*p == '0') p++;
    uint64_t m = 0;
    int sig = 0, frac = 0;
    while ((unsigned)(*p - '0') < 10) { m = m * 10 + (uint64_t)(*p++ - '0'); sig++; }
    int any = p > start;
    if (*p == '.') {
        p++;
        while ((unsigned)(*p - '0') < 10) { m = m * 10 + (uint64_t)(*p++ - '0'); sig++; frac++; }
        any |= frac > 0;
    }
    if (!any) return 0;
    if (*p == '\0' && sig <= 15) {
        double v = (double)m / dblab_pow10[frac];
        *out = neg ? -v : v;
        return 1;
    }
    if (*p == 'e' || *p == 'E') {
        p++;
        if (*p == '-' || *p == '+') p++;
        if ((unsigned)(*p - '0') >= 10) return 0;
        while ((unsigned)(*p - '0') < 10) p++;
    }
    if (*p != '\0') return 0;
    char *end;
    double v = strtod(s, &end);
    if (end != p || !isfinite(v)) return 0;
    *out = v;
    return 1;
}

/* Field parsers of the generated loaders: a field that is not a value
   of its column's type exits naming the place. */
static __attribute__((noinline)) int32_t dblab_parse_int(const char *s, const char *place, int64_t row) {
    int64_t v;
    if (!dblab_scan_integer(s, INT32_MAX, &v)) dblab_bad_field(place, row, s, "Int");
    return (int32_t)v;
}

static __attribute__((noinline)) int64_t dblab_parse_long(const char *s, const char *place, int64_t row) {
    int64_t v;
    if (!dblab_scan_integer(s, INT64_MAX, &v)) dblab_bad_field(place, row, s, "Long");
    return v;
}

static __attribute__((noinline)) double dblab_parse_double(const char *s, const char *place, int64_t row) {
    double v;
    if (!dblab_scan_double(s, &v)) dblab_bad_field(place, row, s, "Double");
    return v;
}

/* A Long index key in the int32 key arrays, saturated: the index
   builders refuse anything outside [0, INT32_MAX) anyway. */
static int32_t dblab_key_of_long(int64_t v) {
    return v < INT32_MIN ? INT32_MIN : v > INT32_MAX ? INT32_MAX : (int32_t)v;
}

/* One part of a date: what Rust's str::parse::<i32> accepts without a
   '-' ([+]digits), saturated at 10000 because no part exceeds 9999. */
static int dblab_scan_date_part(const char **s, int32_t *out) {
    const char *p = *s + (**s == '+');
    const char *digits = p;
    int32_t v = 0;
    while ((unsigned)(*p - '0') < 10) {
        v = v < 10000 ? v * 10 + (*p - '0') : 10000;
        p++;
    }
    *s = p;
    *out = v;
    return p > digits;
}

#define DBLAB_DIGIT(c) ((unsigned)((c) - '0') < 10)

/* What dblab_runtime::table::parse_field accepts for a Date: exactly
   three '-'-separated integers, year 0-9999, month 1-12, day 1-31, as
   y * 10000 + m * 100 + d. dddd-dd-dd is read at fixed offsets. */
static int dblab_scan_date(const char *s, int32_t *out) {
    int32_t y, m, d;
    if (DBLAB_DIGIT(s[0]) && DBLAB_DIGIT(s[1]) && DBLAB_DIGIT(s[2]) && DBLAB_DIGIT(s[3]) &&
        s[4] == '-' && DBLAB_DIGIT(s[5]) && DBLAB_DIGIT(s[6]) &&
        s[7] == '-' && DBLAB_DIGIT(s[8]) && DBLAB_DIGIT(s[9]) && s[10] == '\0') {
        y = (s[0]-'0')*1000 + (s[1]-'0')*100 + (s[2]-'0')*10 + (s[3]-'0');
        m = (s[5]-'0')*10 + (s[6]-'0');
        d = (s[8]-'0')*10 + (s[9]-'0');
    } else if (!dblab_scan_date_part(&s, &y) || *s++ != '-' ||
               !dblab_scan_date_part(&s, &m) || *s++ != '-' ||
               !dblab_scan_date_part(&s, &d) || *s != '\0') {
        return 0;
    }
    if (y > 9999 || m < 1 || m > 12 || d < 1 || d > 31) return 0;
    *out = y * 10000 + m * 100 + d;
    return 1;
}

static __attribute__((noinline)) int32_t dblab_parse_date(const char *s, const char *place, int64_t row) {
    int32_t v;
    if (!dblab_scan_date(s, &v)) dblab_bad_field(place, row, s, "Date");
    return v;
}

#endif /* DBLAB_RUNTIME_H */
"#;

/// Parallel prelude, appended *into* the generated source (never into
/// `dblab_runtime.h`) when the program contains a `ParallelFor`. Keeping
/// the shared header untouched means serial programs stay byte-identical
/// to pre-morsel output, so their build-cache entries remain valid. The
/// `dblab_par_` worker names double as the marker `cc` keys `-pthread` on.
pub const DBLAB_RUNTIME_PAR_H: &str = r#"
/* ---------------- morsel-driven parallelism ---------------- */
#include <pthread.h>
#define DBLAB_MORSEL 16384
"#;

/// Query-parameter prelude, appended into the generated source only when
/// the program contains a `LoadParam` — parameter-free programs stay
/// byte-identical to earlier output, keeping their build-cache entries
/// valid. Parameters travel as `argv[2..]` in canonical text form
/// (`argv[1]` remains the data directory); a missing slot is a hard error,
/// since the serving engine always passes the full declared vector.
pub const DBLAB_RUNTIME_PARAM_H: &str = r#"
/* ---------------- query parameters (argv[2..]) ---------------- */
static int dblab_argc;
static char **dblab_argv;
static const char *dblab_param(int idx) {
    if (idx + 2 >= dblab_argc) {
        fprintf(stderr, "missing query parameter %d\n", idx);
        exit(2);
    }
    return dblab_argv[idx + 2];
}
"#;

#[cfg(test)]
mod tests {
    use std::io::Write as _;
    use std::process::{Command, Stdio};

    use dblab_catalog::ColType;
    use dblab_runtime::table::parse_field;
    use dblab_runtime::Value;

    use crate::backend::{Backend as _, CBackend};

    /// Feeds `d`/`i`/`l`/`t` (date) lines to the header's scanners, one
    /// answer a line: the value (a double's bits in hex) or `refused`.
    const DRIVER: &str = r#"
#include "dblab_runtime.h"
int main(void) {
    char line[512];
    while (fgets(line, sizeof line, stdin)) {
        line[strcspn(line, "\n")] = '\0';
        const char *text = line + 2;
        double d;
        int64_t v;
        int32_t date;
        if (line[0] == 'd' && dblab_scan_double(text, &d)) {
            uint64_t bits;
            memcpy(&bits, &d, 8);
            printf("%016llx\n", (unsigned long long)bits);
        } else if (line[0] == 't' && dblab_scan_date(text, &date)) {
            printf("%d\n", date);
        } else if ((line[0] == 'i' || line[0] == 'l') &&
                   dblab_scan_integer(text, line[0] == 'i' ? INT32_MAX : INT64_MAX, &v)) {
            printf("%lld\n", (long long)v);
        } else {
            puts("refused");
        }
    }
    return 0;
}
"#;

    /// Fixed edge cases plus seeded TPC-H-shaped decimals, negatives,
    /// 15- to 17-digit mantissas and exponents.
    fn corpus() -> Vec<String> {
        let mut out: Vec<String> = [
            "0",
            "-0",
            "+0",
            "0.00",
            "-0.00",
            ".5",
            "5.",
            "-.5",
            "+.5",
            "+5",
            "007",
            "1.",
            ".",
            "",
            "-",
            "+",
            "--1",
            "+-1",
            "1.2.3",
            " 1",
            "1 ",
            "1_000",
            "0x10",
            "1e5",
            "1E5",
            "1e+5",
            "1.5e-3",
            "-2.5E+10",
            "e5",
            "1e",
            "1e+",
            "1e-",
            ".e1",
            "1e309",
            "-1e309",
            "2e308",
            "1.7976931348623157e308",
            "4.9e-324",
            "1e-400",
            "2.2250738585072014e-308",
            "inf",
            "-inf",
            "infinity",
            "NaN",
            "nan",
            "0.1",
            "0.3",
            "123456789012345",
            "1234567890123456",
            "12345678901234567",
            "0.123456789012345",
            "9007199254740993",
            "999999999999999.9",
            "0.000000000000000001",
            "00000000000000000000000000012",
            "2147483647",
            "2147483648",
            "-2147483648",
            "-2147483649",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "18446744073709551616",
            "99999999999999999999",
            "12a",
            "١",
        ]
        .map(String::from)
        .to_vec();
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for i in 0..4000 {
            let sign = ["", "-", "+"][next(3) as usize];
            let s = match i % 4 {
                // TPC-H prices, quantities, discounts.
                0 => format!("{sign}{}.{:02}", next(10_000_000), next(100)),
                // 1 to 17 digits with the point anywhere in them.
                1 | 2 => {
                    let n = 1 + next(17) as usize;
                    let digits: String =
                        (0..n).map(|_| char::from(b'0' + next(10) as u8)).collect();
                    let at = next(n as u64 + 1) as usize;
                    format!("{sign}{}.{}", &digits[..at], &digits[at..])
                }
                // Exponents, into the subnormal and overflowing ranges.
                _ => format!(
                    "{sign}{}.{}e{}",
                    next(10),
                    next(1_000_000_000_000_000),
                    next(700) as i64 - 350
                ),
            };
            out.push(s);
        }
        out
    }

    /// Dates at the edges of the rule (three `-`-separated integers, year
    /// 0–9999, month 1–12, day 1–31) and seeded ones, well- and ill-formed.
    fn date_corpus() -> Vec<String> {
        let mut out: Vec<String> = [
            "1995-03-05",
            "0000-01-01",
            "9999-12-31",
            "10000-01-01",
            "999999-01-01",
            "99999999999-01-01",
            "1995-3",
            "1995-3-5",
            "+1995-+03-+05",
            "-1995-03-05",
            "1995--03-05",
            "1995-03-05-07",
            "1995-03-05-",
            "1995-00-05",
            "1995-13-05",
            "1995-03-00",
            "1995-03-32",
            "1995-03-05 ",
            "1995-03-0x",
            "0001995-0003-0005",
            "",
            "-",
            "--",
        ]
        .map(String::from)
        .to_vec();
        let mut seed = 0xd1b5_4a32_d192_ed03_u64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for _ in 0..1000 {
            let part = |next: &mut dyn FnMut(u64) -> u64, bound: u64, width: usize| {
                let v = next(bound);
                match next(4) {
                    0 => v.to_string(),
                    _ => format!("{v:0width$}"),
                }
            };
            let y = part(&mut next, 12_000, 4);
            let m = part(&mut next, 14, 2);
            let d = part(&mut next, 33, 2);
            out.push(format!("{y}-{m}-{d}"));
        }
        out
    }

    /// The loader's scanners accept exactly what the in-process reader
    /// accepts and return the same value: numbers as `str::parse` reads
    /// them — for doubles the same bits, finite values only — on a corpus
    /// covering both paths of `dblab_scan_double` (the exact division and
    /// `strtod`), and dates as `parse_field` reads them.
    #[test]
    fn loader_numbers_are_bit_identical_to_str_parse() {
        if !CBackend.available() {
            eprintln!("SKIP: requires gcc");
            return;
        }
        let dir = std::env::temp_dir().join("dblab_runtime_parse_test");
        let exe = crate::cc::compile_c(DRIVER, &dir, "parse_driver").expect("gcc");
        let corpus = corpus();
        let dates = date_corpus();
        let mut input = String::new();
        for kind in ["d", "i", "l"] {
            for text in &corpus {
                input.push_str(&format!("{kind} {text}\n"));
            }
        }
        for text in &dates {
            input.push_str(&format!("t {text}\n"));
        }
        let mut child = Command::new(&exe.binary)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn driver");
        let mut stdin = child.stdin.take().unwrap();
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = child.wait_with_output().expect("driver output");
        writer.join().unwrap().expect("write corpus");
        assert!(out.status.success());
        let answers = String::from_utf8(out.stdout).unwrap();
        let mut answers = answers.lines();
        let refused = || "refused".to_string();
        let mut fast = 0;
        for kind in ["d", "i", "l"] {
            for text in &corpus {
                let want = match kind {
                    "d" => (text.parse::<f64>().ok().filter(|v| v.is_finite()))
                        .map_or_else(refused, |v| format!("{:016x}", v.to_bits())),
                    "i" => text
                        .parse::<i32>()
                        .map_or_else(|_| refused(), |v| v.to_string()),
                    _ => text
                        .parse::<i64>()
                        .map_or_else(|_| refused(), |v| v.to_string()),
                };
                let got = answers.next().expect("one answer per line");
                assert_eq!(got, want, "{kind} `{text}`");
                fast += (kind == "d" && !text.contains(['e', 'E']) && want != "refused") as usize;
            }
        }
        assert!(fast > 2000, "the corpus exercises the exact-division path");
        let mut accepted = 0;
        for text in &dates {
            let want = match parse_field(text, ColType::Date) {
                Some(Value::Int(v)) => v.to_string(),
                _ => refused(),
            };
            accepted += (want != "refused") as usize;
            assert_eq!(answers.next(), Some(want.as_str()), "date `{text}`");
        }
        assert!(accepted > 100 && accepted < dates.len(), "{accepted}");
    }
}
