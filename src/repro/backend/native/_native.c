/* _native.c — the compiled core loop behind the `native` backend.
 *
 * Engine.step(i, limit, ...) runs accesses [i, limit) of the trace
 * wholly in C: dispatch, window/LSQ back-pressure, the L1D probe and
 * fill, the MSHR file (a lazy-deletion ready heap over the live Python
 * in-flight dict), the L2 set probe/fill/LRU on the live LRUSet dicts,
 * the buses and DRAM, prefetch issue, and prefetcher training.  The
 * design constraint is strict bit-identity with the python reference
 * loop: all floating-point arithmetic is plain IEEE double in source
 * order — the same ops, in the same order, that the CPython
 * interpreter performs — so cycle counts match bit for bit.
 *
 * Trace columns, the L1D state and the completion/commit timelines are
 * flat numpy planes shared with the Python driver
 * (repro/backend/native/engine.py) through the buffer protocol.  Pure
 * scalars (bus clocks, counters) are unboxed.  Every PREFETCHERS entry
 * trains in C, dispatched on the prefetcher's exact type: the TCP
 * family (base, multi-target, stride-filtered, confidence-filtered,
 * look-ahead, hybrid) trains the live THT rows and PHT dicts; the
 * null, next-line, stride (RPT), stream-buffer, Markov and DBCP
 * prefetchers, the stride detector and the hybrid's dead-block state
 * keep their private tables flat in C.  sync_out writes the flat state
 * to the Python objects and sync_in reloads it, at probe marks and at
 * the end of the run.  Probes, warmup accounting and span boundaries
 * stay in Python.
 *
 * Three callbacks reach back into Python: instruction fetches that miss
 * the L1I-resident set, L1 eviction events for custom observers, and
 * observe_miss for prefetchers without a C trainer (subclasses and
 * unknown types, whose hooks C cannot know).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef struct {
    double t;
    long long b;
} HeapItem;

/* Payload kinds of a SetTable: what the mirrored LRUSet values hold. */
enum {
    ST_INT,    /* an int (DBCP successor block) */
    ST_FLOAT,  /* a float (timekeeping live time) */
    ST_RPT,    /* an RPT entry: last block, stride, state (key = PC) */
    ST_MARKOV, /* a Markov entry: successor count, then the successors */
};

/* A prefetcher table of small LRU sets, flattened: way slots kept in
 * recency order (slot 0 = LRU, slot len-1 = MRU), so a slot's position
 * is its LRU rank and the slot order is the insertion order of the
 * mirrored LRUSet dict.  Integer payloads take `vw` words per slot;
 * ST_FLOAT payloads one double. */
typedef struct {
    Py_ssize_t nsets, ways, vw;
    int kind;
    long long *key;
    long long *ival;
    double *fval;
    long long *scratch;   /* vw words, for rotating a payload */
    int *len;
    unsigned char *dirty; /* set changed since the last mirror to Python */
    PyObject *sets;       /* list[LRUSet] mirrored at boundaries */
    PyObject *factory;    /* payload class of the object kinds */
} SetTable;

/* Open-addressing int -> int map with insertion order (DBCP's live
 * signatures).  seq == 0 marks an empty slot; seq orders entries the
 * way the mirrored dict orders its keys. */
typedef struct {
    long long *keys, *vals;
    unsigned long long *seqs;
    Py_ssize_t cap, len;
    unsigned long long next_seq;
} LiveMap;

/* Miss-stream trainers, chosen by the driver on the prefetcher's exact
 * type (the "trainer" spec string). */
enum {
    TR_ABSENT,     /* no prefetcher attached */
    TR_CALLBACK,   /* observe_miss through Python */
    TR_NULL,
    TR_NEXTLINE,
    TR_STRIDE,
    TR_STREAM,
    TR_MARKOV,
    TR_DBCP,
    TR_TCP,        /* the base TCP and MultiTargetTCP */
    TR_TCP_STRIDE,
    TR_TCP_CONF,
    TR_TCP_LOOK,
    TR_HYBRID,
};

static const char *const TRAINER_NAMES[] = {
    "absent", "callback", "null", "nextline", "stride", "stream", "markov",
    "dbcp", "tcp", "tcp-stride", "tcp-conf", "tcp-look", "hybrid", NULL,
};

typedef struct {
    PyObject_HEAD

    /* ---- read-only trace planes (borrowed buffers) ---- */
    Py_buffer idx_b, instr_b, blocks_b, tags_b, deps_b, load_b, incs_b,
        l2i_b, l2t_b, fb_b, pcs_b;
    const long long *idx, *instr, *blocks, *tags, *deps, *l2i, *l2t, *fb;
    const unsigned long long *pcs;
    const unsigned char *load;
    const double *incs;
    int have_fb;

    /* ---- read-write planes ---- */
    Py_buffer comp_b, cmt_b;
    double *comp_arr, *cmt_arr;
    Py_ssize_t n;
    Py_buffer l1tag_b, l1la_b, l1ft_b, l1dirty_b, l1pf_b;
    long long *l1tag;
    double *l1la, *l1ft;
    unsigned char *l1dirty;
    unsigned char *l1pf; /* the prefetched bit of each L1D line */
    Py_buffer thtsum_b;
    long long *thtsum;
    int have_thtsum;

    /* ---- live Python containers / objects (owned refs) ---- */
    PyObject *msh_inf;    /* dict: block -> completion */
    PyObject *mem_comp;   /* list[float] (mutated in place) */
    PyObject *pf_inflight;/* list[float] (mutated in place) */
    PyObject *l2_entries; /* list[dict] */
    PyObject *l2_sets;    /* list[LRUSet] */
    PyObject *pht_sets;   /* list[LRUSet] or None */
    PyObject *tht_hist;   /* list[tuple[int, ...]] or None */
    PyObject *resident;   /* set[int] */
    PyObject *cacheline;  /* CacheLine class */
    PyObject *l1i_lookup; /* bound method */
    PyObject *ab, *db, *mab, *mdb; /* buses */
    PyObject *mshr, *memory, *hierarchy;
    PyObject *ifetch_cb, *observe_cb, *evict_cb;

    /* ---- machine scalars ---- */
    long long window;
    Py_ssize_t lsq;
    double ls_s, inv_cr;
    long long l1_lat, l2_lat, l1_beats, mem_beats, mem_lat;
    Py_ssize_t mem_maxc, msh_entries, l2_ways, pf_max, pht_ways, pht_targets;
    long long l2_shift, l2_imask, l1_ib, l1i_mask, seq_mask, miss_mask;
    int l2_ibits, l1i_bits, n_bits, tht_ib;
    long long pf_delay;
    double pf_busy_thr;
    int lru_pf, ideal_l2, model_icache, needs_evict;

    /* ---- mirrored component scalars (synced at boundaries) ---- */
    double a_nf, a_by, a_qc;
    long long a_tr;
    double d_nf, d_by, d_qc;
    long long d_tr;
    double ma_nf, ma_by, ma_qc;
    long long ma_tr;
    double md_nf, md_by, md_qc;
    long long md_tr;
    long long msh_fs, msh_mg, msh_pk;
    long long mem_acc;

    /* ---- lazy-deletion MSHR heap (C-owned; rebuilt on sync_in) ---- */
    HeapItem *heap;
    Py_ssize_t heap_len, heap_cap;

    /* ---- the miss-stream trainer ---- */
    int trainer;
    PyObject *pf_obj;           /* the prefetcher */
    long long degree;           /* next-line degree, RPT or TCP look-ahead */

    /* ---- stride (RPT) and Markov tables ---- */
    SetTable rpt;
    SetTable mk;
    int mk_prev_valid;
    long long mk_prev;

    /* ---- stream buffers ---- */
    Py_ssize_t sb_n;
    long long sb_depth;
    long long *sb_next;
    double *sb_use;
    unsigned char *sb_valid;
    PyObject *sb_factory;

    /* ---- TCP variants: stride detector, confidence, look-ahead ---- */
    PyObject *det_obj;
    Py_ssize_t det_n;
    long long det_depth;
    long long *det_last, *det_stride, *det_conf;
    PyObject *conf;             /* live dict: (PHT set, tag) -> counter */
    long long conf_thr, conf_max;
    long long *spec;            /* speculative THT row (look-ahead) */
    Py_ssize_t spec_len;
    long long *seen;            /* blocks issued along the chain */

    /* ---- DBCP: signature table, live signatures, pending death ---- */
    SetTable dt;
    int dt_shift;
    unsigned long long sig_mask;
    LiveMap live;
    int pend_valid;
    long long pend_sig;

    /* ---- hybrid: pending promotions, dead-block history, prefetch bus */
    int into_l1;
    long long l1_set_mask;
    long long *pl_block;        /* per L1 set */
    double *pl_ready;
    unsigned long long *pl_seq; /* 0 = no pending promotion */
    Py_ssize_t pl_count;
    unsigned long long pl_next_seq;
    double ttl;
    SetTable dh;
    double dead_factor, default_idle, min_idle;
    PyObject *pb;               /* dedicated prefetch bus or NULL */
    double pb_nf, pb_by, pb_qc;
    long long pb_tr;

    /* ---- stat deltas (drained by take_stats) ---- */
    long long dc, ldc, stc, hc, ifc;
    long long l1m, l2a, l2h, l2m, pfo, useful, mgd, wb1, wb2;
    long long pfr, pfi, pfred, pfdq, pfdb, pfev;
    long long pfl, pfu, pfp, tl, tp, pu, pl, ph;
    long long dead, pa, pd, dq, dv, de, l1p, l1ph;
    long long sp, dobs, dhits, sup;
    long long cb_ifetch, cb_l1i, cb_observe, cb_evict;
    long long sc;
    long long epi_ns;
} EngineObject;

/* interned attribute names (module-lifetime) */
static PyObject *s_entries, *s_last_access, *s_prefetched, *s_fill_time,
    *s_dirty, *s_next_free, *s_busy_cycles, *s_queued_cycles, *s_transfers,
    *s_earliest, *s_full_stalls, *s_merges, *s_peak_occupancy,
    *s_completions_attr, *s_accesses, *s_pf_inflight_attr, *s_pending_l1,
    *s_live_signatures, *s_pending_death, *s_last_block, *s_stride, *s_state,
    *s_successors, *s_streams, *s_next_block, *s_last_use, *s_det_state,
    *s_previous_block, *s_confidence;

/* ================= small helpers ================= */

static int
heap_reserve(EngineObject *e, Py_ssize_t need)
{
    if (need <= e->heap_cap)
        return 0;
    Py_ssize_t cap = e->heap_cap ? e->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    HeapItem *p = PyMem_Realloc(e->heap, cap * sizeof(HeapItem));
    if (p == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->heap = p;
    e->heap_cap = cap;
    return 0;
}

static int
heap_push(EngineObject *e, double t, long long b)
{
    if (heap_reserve(e, e->heap_len + 1) < 0)
        return -1;
    Py_ssize_t pos = e->heap_len++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (e->heap[parent].t <= t)
            break;
        e->heap[pos] = e->heap[parent];
        pos = parent;
    }
    e->heap[pos].t = t;
    e->heap[pos].b = b;
    return 0;
}

static void
heap_popmin(EngineObject *e, HeapItem *out)
{
    *out = e->heap[0];
    Py_ssize_t len = --e->heap_len;
    if (len == 0)
        return;
    HeapItem last = e->heap[len];
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= len)
            break;
        if (child + 1 < len && e->heap[child + 1].t < e->heap[child].t)
            child += 1;
        if (e->heap[child].t >= last.t)
            break;
        e->heap[pos] = e->heap[child];
        pos = child;
    }
    e->heap[pos] = last;
}

/* first key of a dict (borrowed ref), NULL if empty */
static PyObject *
dict_first_key(PyObject *d)
{
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    if (PyDict_Next(d, &pos, &k, &v))
        return k;
    return NULL;
}

static int
attr_true(PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int res = PyObject_IsTrue(v);
    Py_DECREF(v);
    return res;
}

static double
attr_double(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        *err = 1;
        return 0.0;
    }
    double d = PyFloat_AsDouble(v);
    Py_DECREF(v);
    if (d == -1.0 && PyErr_Occurred()) {
        *err = 1;
        return 0.0;
    }
    return d;
}

static long long
attr_ll(PyObject *obj, PyObject *name, int *err)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL) {
        *err = 1;
        return 0;
    }
    long long r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred()) {
        *err = 1;
        return 0;
    }
    return r;
}

static int
set_attr_double(PyObject *obj, PyObject *name, double val)
{
    PyObject *v = PyFloat_FromDouble(val);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

static int
set_attr_ll(PyObject *obj, PyObject *name, long long val)
{
    PyObject *v = PyLong_FromLongLong(val);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return r;
}

static int
list_append_double(PyObject *list, double val)
{
    PyObject *v = PyFloat_FromDouble(val);
    if (v == NULL)
        return -1;
    int r = PyList_Append(list, v);
    Py_DECREF(v);
    return r;
}

/* `msh_inf.get(b) == t` with the reference's equality semantics */
static int
mshr_match(EngineObject *e, long long b, double t)
{
    PyObject *bo = PyLong_FromLongLong(b);
    if (bo == NULL)
        return -1;
    PyObject *val = PyDict_GetItemWithError(e->msh_inf, bo);
    Py_DECREF(bo);
    if (val == NULL) {
        if (PyErr_Occurred())
            PyErr_Clear();
        return 0;
    }
    double dv = PyFloat_AsDouble(val);
    if (dv == -1.0 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    return dv == t;
}

/* `if msh_inf.get(b) == t: del msh_inf[b]` */
static int
mshr_del_if_match(EngineObject *e, long long b, double t)
{
    PyObject *bo = PyLong_FromLongLong(b);
    if (bo == NULL)
        return -1;
    PyObject *val = PyDict_GetItemWithError(e->msh_inf, bo);
    if (val != NULL) {
        double dv = PyFloat_AsDouble(val);
        if (dv == -1.0 && PyErr_Occurred())
            PyErr_Clear();
        else if (dv == t) {
            if (PyDict_DelItem(e->msh_inf, bo) < 0) {
                Py_DECREF(bo);
                return -1;
            }
        }
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(bo);
        return -1;
    }
    Py_DECREF(bo);
    return 0;
}

/* delete the sorted prefix of mem_comp with value <= bound (the
 * reference's `[x for x in mem_comp if x > bound]` after a sort) */
static int
memcomp_prefix_filter(EngineObject *e, double bound)
{
    Py_ssize_t len = PyList_GET_SIZE(e->mem_comp);
    Py_ssize_t k = 0;
    while (k < len) {
        double v = PyFloat_AsDouble(PyList_GET_ITEM(e->mem_comp, k));
        if (v == -1.0 && PyErr_Occurred())
            return -1;
        if (v > bound)
            break;
        k++;
    }
    if (k == 0)
        return 0;
    return PyList_SetSlice(e->mem_comp, 0, k, NULL);
}

/* ================= flat prefetcher tables ================= */

static int
st_alloc(SetTable *t, PyObject *sets, Py_ssize_t ways, int kind,
         Py_ssize_t vw)
{
    Py_ssize_t nsets = PyList_GET_SIZE(sets);
    if (nsets <= 0 || (nsets & (nsets - 1)) || ways <= 0 || vw <= 0) {
        PyErr_SetString(PyExc_ValueError, "prefetcher table geometry");
        return -1;
    }
    t->nsets = nsets;
    t->ways = ways;
    t->kind = kind;
    t->vw = vw;
    t->key = PyMem_Calloc(nsets * ways, sizeof(long long));
    if (kind == ST_FLOAT)
        t->fval = PyMem_Calloc(nsets * ways, sizeof(double));
    else {
        t->ival = PyMem_Calloc(nsets * ways * vw, sizeof(long long));
        t->scratch = PyMem_Calloc(vw, sizeof(long long));
    }
    t->len = PyMem_Calloc(nsets, sizeof(int));
    t->dirty = PyMem_Calloc(nsets, 1);
    if (t->key == NULL || (t->fval == NULL && t->ival == NULL) ||
        (kind != ST_FLOAT && t->scratch == NULL) || t->len == NULL ||
        t->dirty == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void
st_free(SetTable *t)
{
    PyMem_Free(t->key);
    PyMem_Free(t->ival);
    PyMem_Free(t->fval);
    PyMem_Free(t->scratch);
    PyMem_Free(t->len);
    PyMem_Free(t->dirty);
    Py_XDECREF(t->sets);
    Py_XDECREF(t->factory);
}

/* slot of `key` in set `set`, or -1 (LRUSet.peek: no reordering) */
static inline Py_ssize_t
st_find(const SetTable *t, Py_ssize_t set, long long key)
{
    const long long *k = t->key + set * t->ways;
    int n = t->len[set];
    for (int w = 0; w < n; w++) {
        if (k[w] == key)
            return w;
    }
    return -1;
}

/* integer payload of absolute slot `slot` (set * ways + way) */
static inline long long *
st_words(const SetTable *t, Py_ssize_t slot)
{
    return t->ival + slot * t->vw;
}

/* move way w of `set` to the MRU end (del + reinsert); returns the
 * absolute MRU slot */
static inline Py_ssize_t
st_touch(SetTable *t, Py_ssize_t set, Py_ssize_t w)
{
    Py_ssize_t base = set * t->ways;
    int last = t->len[set] - 1;
    if (w == last)
        return base + last;
    long long k = t->key[base + w];
    Py_ssize_t tail = last - w;
    memmove(t->key + base + w, t->key + base + w + 1, tail * sizeof(long long));
    t->key[base + last] = k;
    if (t->ival != NULL) {
        Py_ssize_t vw = t->vw;
        memcpy(t->scratch, st_words(t, base + w), vw * sizeof(long long));
        memmove(st_words(t, base + w), st_words(t, base + w + 1),
                tail * vw * sizeof(long long));
        memcpy(st_words(t, base + last), t->scratch, vw * sizeof(long long));
    }
    else {
        double v = t->fval[base + w];
        memmove(t->fval + base + w, t->fval + base + w + 1,
                tail * sizeof(double));
        t->fval[base + last] = v;
    }
    return base + last;
}

/* LRUSet.get: the absolute slot of `key`, promoted to MRU, or -1 */
static inline Py_ssize_t
st_get(SetTable *t, Py_ssize_t set, long long key)
{
    Py_ssize_t w = st_find(t, set, key);
    if (w < 0)
        return -1;
    t->dirty[set] = 1;
    return st_touch(t, set, w);
}

/* LRUSet.put: update-and-promote, else evict the LRU slot when full,
 * then insert at MRU.  Returns the absolute slot; the caller writes the
 * payload. */
static Py_ssize_t
st_put(SetTable *t, Py_ssize_t set, long long key)
{
    Py_ssize_t w = st_find(t, set, key);
    if (w >= 0)
        st_touch(t, set, w);
    else if (t->len[set] >= t->ways)
        st_touch(t, set, 0); /* LRU to the end, then overwrite */
    else
        t->len[set]++;
    Py_ssize_t last = set * t->ways + t->len[set] - 1;
    t->key[last] = key;
    t->dirty[set] = 1;
    return last;
}

/* the payload object `v` of a Python entry -> slot `slot` */
static int
st_value_in(SetTable *t, Py_ssize_t slot, PyObject *v)
{
    int err = 0;
    if (t->kind == ST_FLOAT) {
        double fv = PyFloat_AsDouble(v);
        if (fv == -1.0 && PyErr_Occurred())
            return -1;
        t->fval[slot] = fv;
        return 0;
    }
    long long *w = st_words(t, slot);
    if (t->kind == ST_INT) {
        w[0] = PyLong_AsLongLong(v);
        return (w[0] == -1 && PyErr_Occurred()) ? -1 : 0;
    }
    if (t->kind == ST_RPT) {
        w[0] = attr_ll(v, s_last_block, &err);
        w[1] = attr_ll(v, s_stride, &err);
        w[2] = attr_ll(v, s_state, &err);
        return err ? -1 : 0;
    }
    PyObject *succ = PyObject_GetAttr(v, s_successors);
    if (succ == NULL)
        return -1;
    Py_ssize_t count = PyList_Check(succ) ? PyList_GET_SIZE(succ) : -1;
    if (count < 0 || count > t->vw - 1) {
        Py_DECREF(succ);
        PyErr_SetString(PyExc_ValueError,
                        "Markov entry successors: not a list within the "
                        "target count");
        return -1;
    }
    w[0] = count;
    for (Py_ssize_t q = 0; q < count; q++) {
        w[1 + q] = PyLong_AsLongLong(PyList_GET_ITEM(succ, q));
        if (w[1 + q] == -1 && PyErr_Occurred()) {
            Py_DECREF(succ);
            return -1;
        }
    }
    Py_DECREF(succ);
    return 0;
}

/* slot `slot` -> a new payload object (new ref) */
static PyObject *
st_value_out(SetTable *t, Py_ssize_t slot)
{
    if (t->kind == ST_FLOAT)
        return PyFloat_FromDouble(t->fval[slot]);
    long long *w = st_words(t, slot);
    if (t->kind == ST_INT)
        return PyLong_FromLongLong(w[0]);
    if (t->kind == ST_RPT) {
        PyObject *entry = PyObject_CallFunction(t->factory, "L", w[0]);
        if (entry == NULL || set_attr_ll(entry, s_stride, w[1]) < 0 ||
            set_attr_ll(entry, s_state, w[2]) < 0) {
            Py_XDECREF(entry);
            return NULL;
        }
        return entry;
    }
    PyObject *succ = PyList_New(w[0]);
    if (succ == NULL)
        return NULL;
    for (Py_ssize_t q = 0; q < w[0]; q++) {
        PyObject *o = PyLong_FromLongLong(w[1 + q]);
        if (o == NULL) {
            Py_DECREF(succ);
            return NULL;
        }
        PyList_SET_ITEM(succ, q, o);
    }
    PyObject *entry = PyObject_CallNoArgs(t->factory);
    int r = entry == NULL ? -1 : PyObject_SetAttr(entry, s_successors, succ);
    Py_DECREF(succ);
    if (r < 0) {
        Py_XDECREF(entry);
        return NULL;
    }
    return entry;
}

/* Python -> C: reload every set from the LRUSet dicts */
static int
st_load(SetTable *t)
{
    if (PyList_GET_SIZE(t->sets) != t->nsets) {
        PyErr_SetString(PyExc_ValueError, "table set count changed");
        return -1;
    }
    for (Py_ssize_t set = 0; set < t->nsets; set++) {
        PyObject *entries =
            PyObject_GetAttr(PyList_GET_ITEM(t->sets, set), s_entries);
        if (entries == NULL)
            return -1;
        Py_ssize_t n = PyDict_GET_SIZE(entries);
        if (n > t->ways) {
            Py_DECREF(entries);
            PyErr_Format(PyExc_ValueError,
                         "table set %zd holds %zd entries, over its %zd ways",
                         set, n, t->ways);
            return -1;
        }
        Py_ssize_t base = set * t->ways, pos = 0, w = 0;
        PyObject *k, *v;
        while (PyDict_Next(entries, &pos, &k, &v)) {
            /* RPT keys are PCs: unsigned 64-bit */
            long long kv = t->kind == ST_RPT
                               ? (long long)PyLong_AsUnsignedLongLong(k)
                               : PyLong_AsLongLong(k);
            if ((kv == -1 && PyErr_Occurred()) ||
                st_value_in(t, base + w, v) < 0) {
                Py_DECREF(entries);
                return -1;
            }
            t->key[base + w] = kv;
            w++;
        }
        Py_DECREF(entries);
        t->len[set] = (int)n;
        t->dirty[set] = 0;
    }
    return 0;
}

/* C -> Python: rebuild the dict of every set changed since the last
 * mirror, in recency order (LRU first, as LRUSet keeps it) */
static int
st_store(SetTable *t)
{
    for (Py_ssize_t set = 0; set < t->nsets; set++) {
        if (!t->dirty[set])
            continue;
        PyObject *entries =
            PyObject_GetAttr(PyList_GET_ITEM(t->sets, set), s_entries);
        if (entries == NULL)
            return -1;
        PyDict_Clear(entries);
        Py_ssize_t base = set * t->ways;
        for (int w = 0; w < t->len[set]; w++) {
            long long kv = t->key[base + w];
            PyObject *k = t->kind == ST_RPT
                              ? PyLong_FromUnsignedLongLong(
                                    (unsigned long long)kv)
                              : PyLong_FromLongLong(kv);
            PyObject *v = st_value_out(t, base + w);
            int r = (k == NULL || v == NULL) ? -1
                                             : PyDict_SetItem(entries, k, v);
            Py_XDECREF(k);
            Py_XDECREF(v);
            if (r < 0) {
                Py_DECREF(entries);
                return -1;
            }
        }
        Py_DECREF(entries);
        t->dirty[set] = 0;
    }
    return 0;
}

static inline size_t
lm_hash(long long k)
{
    unsigned long long h = (unsigned long long)k * 0x9E3779B97F4A7C15ULL;
    return (size_t)(h ^ (h >> 29));
}

static int
lm_alloc(LiveMap *m, Py_ssize_t cap)
{
    m->keys = PyMem_Calloc(cap, sizeof(long long));
    m->vals = PyMem_Calloc(cap, sizeof(long long));
    m->seqs = PyMem_Calloc(cap, sizeof(unsigned long long));
    if (m->keys == NULL || m->vals == NULL || m->seqs == NULL) {
        PyMem_Free(m->keys);
        PyMem_Free(m->vals);
        PyMem_Free(m->seqs);
        m->keys = m->vals = NULL;
        m->seqs = NULL;
        PyErr_NoMemory();
        return -1;
    }
    m->cap = cap;
    m->len = 0;
    return 0;
}

static void
lm_free(LiveMap *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->vals);
    PyMem_Free(m->seqs);
}

static void
lm_clear(LiveMap *m)
{
    memset(m->seqs, 0, m->cap * sizeof(unsigned long long));
    m->len = 0;
    m->next_seq = 1;
}

static inline Py_ssize_t
lm_find(const LiveMap *m, long long k)
{
    size_t mask = (size_t)m->cap - 1;
    size_t i = lm_hash(k) & mask;
    while (m->seqs[i]) {
        if (m->keys[i] == k)
            return (Py_ssize_t)i;
        i = (i + 1) & mask;
    }
    return -1;
}

static void
lm_insert_raw(LiveMap *m, long long k, long long v, unsigned long long seq)
{
    size_t mask = (size_t)m->cap - 1;
    size_t i = lm_hash(k) & mask;
    while (m->seqs[i])
        i = (i + 1) & mask;
    m->keys[i] = k;
    m->vals[i] = v;
    m->seqs[i] = seq;
    m->len++;
}

/* d[k] = v: an existing key keeps its insertion position */
static int
lm_set(LiveMap *m, long long k, long long v)
{
    Py_ssize_t i = lm_find(m, k);
    if (i >= 0) {
        m->vals[i] = v;
        return 0;
    }
    if ((m->len + 1) * 2 > m->cap) {
        LiveMap old = *m;
        if (lm_alloc(m, old.cap * 2) < 0) {
            *m = old;
            return -1;
        }
        m->next_seq = old.next_seq;
        for (Py_ssize_t j = 0; j < old.cap; j++) {
            if (old.seqs[j])
                lm_insert_raw(m, old.keys[j], old.vals[j], old.seqs[j]);
        }
        lm_free(&old);
    }
    lm_insert_raw(m, k, v, m->next_seq++);
    return 0;
}

/* d.pop(k): backward-shift deletion keeps every probe chain intact */
static int
lm_pop(LiveMap *m, long long k, long long *out)
{
    Py_ssize_t found = lm_find(m, k);
    if (found < 0)
        return 0;
    *out = m->vals[found];
    size_t mask = (size_t)m->cap - 1;
    size_t i = (size_t)found, j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (!m->seqs[j])
            break;
        size_t home = lm_hash(m->keys[j]) & mask;
        if (((j - home) & mask) >= ((j - i) & mask)) {
            m->keys[i] = m->keys[j];
            m->vals[i] = m->vals[j];
            m->seqs[i] = m->seqs[j];
            i = j;
        }
    }
    m->seqs[i] = 0;
    m->len--;
    return 1;
}

static int
cmp_seq(const void *a, const void *b)
{
    unsigned long long x = ((const unsigned long long *)a)[0];
    unsigned long long y = ((const unsigned long long *)b)[0];
    return (x > y) - (x < y);
}

/* (seq, slot) pairs of the occupied slots, sorted by insertion order */
static unsigned long long *
sorted_slots(const unsigned long long *seqs, Py_ssize_t cap, Py_ssize_t count)
{
    unsigned long long *order =
        PyMem_Malloc((count ? count : 1) * 2 * sizeof(unsigned long long));
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    Py_ssize_t q = 0;
    for (Py_ssize_t j = 0; j < cap && q < count; j++) {
        if (seqs[j]) {
            order[2 * q] = seqs[j];
            order[2 * q + 1] = (unsigned long long)j;
            q++;
        }
    }
    qsort(order, (size_t)q, 2 * sizeof(unsigned long long), cmp_seq);
    return order;
}

/* ---- hybrid pending promotions (hierarchy._pending_l1) ---- */

static inline void
pend_set(EngineObject *e, long long s, long long block, double ready)
{
    if (!e->pl_seq[s]) {
        e->pl_seq[s] = e->pl_next_seq++;
        e->pl_count++;
    }
    e->pl_block[s] = block;
    e->pl_ready[s] = ready;
}

static inline void
pend_del(EngineObject *e, long long s)
{
    e->pl_seq[s] = 0;
    e->pl_count--;
}

/* ---- mirrors of the Python-side prefetcher state ---- */

/* StreamBufferPrefetcher._streams: a list of None or _Stream */
static int
streams_out(EngineObject *e)
{
    PyObject *lst = PyList_New(e->sb_n);
    if (lst == NULL)
        return -1;
    for (Py_ssize_t q = 0; q < e->sb_n; q++) {
        PyObject *o;
        if (e->sb_valid[q])
            o = PyObject_CallFunction(e->sb_factory, "Ld", e->sb_next[q],
                                      e->sb_use[q]);
        else
            o = (Py_INCREF(Py_None), Py_None);
        if (o == NULL) {
            Py_DECREF(lst);
            return -1;
        }
        PyList_SET_ITEM(lst, q, o);
    }
    int r = PyObject_SetAttr(e->pf_obj, s_streams, lst);
    Py_DECREF(lst);
    return r;
}

static int
streams_in(EngineObject *e)
{
    PyObject *lst = PyObject_GetAttr(e->pf_obj, s_streams);
    if (lst == NULL)
        return -1;
    if (!PyList_Check(lst) || PyList_GET_SIZE(lst) != e->sb_n) {
        Py_DECREF(lst);
        PyErr_SetString(PyExc_ValueError, "stream buffer count changed");
        return -1;
    }
    int err = 0;
    for (Py_ssize_t q = 0; q < e->sb_n && !err; q++) {
        PyObject *o = PyList_GET_ITEM(lst, q);
        e->sb_valid[q] = o != Py_None;
        if (e->sb_valid[q]) {
            e->sb_next[q] = attr_ll(o, s_next_block, &err);
            e->sb_use[q] = attr_double(o, s_last_use, &err);
        }
    }
    Py_DECREF(lst);
    return err ? -1 : 0;
}

/* StridedSequenceDetector._state: a list of (last tag, stride,
 * confirmations) tuples */
static int
detector_out(EngineObject *e)
{
    PyObject *lst = PyList_New(e->det_n);
    if (lst == NULL)
        return -1;
    for (Py_ssize_t q = 0; q < e->det_n; q++) {
        PyObject *o = Py_BuildValue("(LLL)", e->det_last[q], e->det_stride[q],
                                    e->det_conf[q]);
        if (o == NULL) {
            Py_DECREF(lst);
            return -1;
        }
        PyList_SET_ITEM(lst, q, o);
    }
    int r = PyObject_SetAttr(e->det_obj, s_det_state, lst);
    Py_DECREF(lst);
    return r;
}

static int
detector_in(EngineObject *e)
{
    PyObject *lst = PyObject_GetAttr(e->det_obj, s_det_state);
    if (lst == NULL)
        return -1;
    if (!PyList_Check(lst) || PyList_GET_SIZE(lst) != e->det_n) {
        Py_DECREF(lst);
        PyErr_SetString(PyExc_ValueError, "stride detector set count changed");
        return -1;
    }
    for (Py_ssize_t q = 0; q < e->det_n; q++) {
        if (!PyArg_ParseTuple(PyList_GET_ITEM(lst, q), "LLL", &e->det_last[q],
                              &e->det_stride[q], &e->det_conf[q])) {
            Py_DECREF(lst);
            return -1;
        }
    }
    Py_DECREF(lst);
    return 0;
}

static int
tables_out(EngineObject *e)
{
    if (e->trainer == TR_STRIDE && st_store(&e->rpt) < 0)
        return -1;
    if (e->trainer == TR_STREAM && streams_out(e) < 0)
        return -1;
    if (e->trainer == TR_TCP_STRIDE && detector_out(e) < 0)
        return -1;
    if (e->trainer == TR_MARKOV) {
        if (st_store(&e->mk) < 0)
            return -1;
        PyObject *prev = e->mk_prev_valid ? PyLong_FromLongLong(e->mk_prev)
                                          : (Py_INCREF(Py_None), Py_None);
        if (prev == NULL)
            return -1;
        int r = PyObject_SetAttr(e->pf_obj, s_previous_block, prev);
        Py_DECREF(prev);
        if (r < 0)
            return -1;
    }
    if (e->trainer == TR_DBCP) {
        if (st_store(&e->dt) < 0)
            return -1;
        PyObject *live = PyObject_GetAttr(e->pf_obj, s_live_signatures);
        if (live == NULL)
            return -1;
        PyDict_Clear(live);
        unsigned long long *order =
            sorted_slots(e->live.seqs, e->live.cap, e->live.len);
        if (order == NULL) {
            Py_DECREF(live);
            return -1;
        }
        for (Py_ssize_t q = 0; q < e->live.len; q++) {
            Py_ssize_t j = (Py_ssize_t)order[2 * q + 1];
            PyObject *k = PyLong_FromLongLong(e->live.keys[j]);
            PyObject *v = PyLong_FromLongLong(e->live.vals[j]);
            int r = (k == NULL || v == NULL) ? -1 : PyDict_SetItem(live, k, v);
            Py_XDECREF(k);
            Py_XDECREF(v);
            if (r < 0) {
                PyMem_Free(order);
                Py_DECREF(live);
                return -1;
            }
        }
        PyMem_Free(order);
        Py_DECREF(live);
        PyObject *pend = e->pend_valid ? PyLong_FromLongLong(e->pend_sig)
                                       : (Py_INCREF(Py_None), Py_None);
        if (pend == NULL)
            return -1;
        int r = PyObject_SetAttr(e->pf_obj, s_pending_death, pend);
        Py_DECREF(pend);
        if (r < 0)
            return -1;
    }
    if (e->trainer == TR_HYBRID) {
        if (st_store(&e->dh) < 0)
            return -1;
        PyObject *pending = PyObject_GetAttr(e->hierarchy, s_pending_l1);
        if (pending == NULL)
            return -1;
        PyDict_Clear(pending);
        Py_ssize_t n_sets = e->l1tag_b.len / (Py_ssize_t)sizeof(long long);
        unsigned long long *order = sorted_slots(e->pl_seq, n_sets, e->pl_count);
        if (order == NULL) {
            Py_DECREF(pending);
            return -1;
        }
        for (Py_ssize_t q = 0; q < e->pl_count; q++) {
            Py_ssize_t s = (Py_ssize_t)order[2 * q + 1];
            PyObject *k = PyLong_FromSsize_t(s);
            PyObject *v = Py_BuildValue("(Ld)", e->pl_block[s], e->pl_ready[s]);
            int r = (k == NULL || v == NULL) ? -1
                                             : PyDict_SetItem(pending, k, v);
            Py_XDECREF(k);
            Py_XDECREF(v);
            if (r < 0) {
                PyMem_Free(order);
                Py_DECREF(pending);
                return -1;
            }
        }
        PyMem_Free(order);
        Py_DECREF(pending);
    }
    return 0;
}

static int
tables_in(EngineObject *e)
{
    if (e->trainer == TR_TCP_CONF) {
        /* the live confidence dict: chase the current object */
        PyObject *conf = PyObject_GetAttr(e->pf_obj, s_confidence);
        if (conf == NULL)
            return -1;
        if (!PyDict_Check(conf)) {
            Py_DECREF(conf);
            PyErr_SetString(PyExc_TypeError, "confidence table must be a dict");
            return -1;
        }
        Py_XSETREF(e->conf, conf);
    }
    if (e->trainer == TR_STRIDE && st_load(&e->rpt) < 0)
        return -1;
    if (e->trainer == TR_STREAM && streams_in(e) < 0)
        return -1;
    if (e->trainer == TR_TCP_STRIDE && detector_in(e) < 0)
        return -1;
    if (e->trainer == TR_MARKOV) {
        if (st_load(&e->mk) < 0)
            return -1;
        PyObject *prev = PyObject_GetAttr(e->pf_obj, s_previous_block);
        if (prev == NULL)
            return -1;
        e->mk_prev_valid = prev != Py_None;
        if (e->mk_prev_valid)
            e->mk_prev = PyLong_AsLongLong(prev);
        Py_DECREF(prev);
        if (e->mk_prev_valid && e->mk_prev == -1 && PyErr_Occurred())
            return -1;
    }
    if (e->trainer == TR_DBCP) {
        if (st_load(&e->dt) < 0)
            return -1;
        PyObject *live = PyObject_GetAttr(e->pf_obj, s_live_signatures);
        if (live == NULL)
            return -1;
        lm_clear(&e->live);
        PyObject *k, *v;
        Py_ssize_t pos = 0;
        while (PyDict_Next(live, &pos, &k, &v)) {
            long long kv = PyLong_AsLongLong(k);
            long long vv = PyLong_AsLongLong(v);
            if (((kv == -1 || vv == -1) && PyErr_Occurred()) ||
                lm_set(&e->live, kv, vv) < 0) {
                Py_DECREF(live);
                return -1;
            }
        }
        Py_DECREF(live);
        PyObject *pend = PyObject_GetAttr(e->pf_obj, s_pending_death);
        if (pend == NULL)
            return -1;
        e->pend_valid = pend != Py_None;
        if (e->pend_valid) {
            e->pend_sig = PyLong_AsLongLong(pend);
            if (e->pend_sig == -1 && PyErr_Occurred()) {
                Py_DECREF(pend);
                return -1;
            }
        }
        Py_DECREF(pend);
    }
    if (e->trainer == TR_HYBRID) {
        if (st_load(&e->dh) < 0)
            return -1;
        PyObject *pending = PyObject_GetAttr(e->hierarchy, s_pending_l1);
        if (pending == NULL)
            return -1;
        Py_ssize_t n_sets = e->l1tag_b.len / (Py_ssize_t)sizeof(long long);
        memset(e->pl_seq, 0, n_sets * sizeof(unsigned long long));
        e->pl_count = 0;
        e->pl_next_seq = 1;
        PyObject *k, *v;
        Py_ssize_t pos = 0;
        while (PyDict_Next(pending, &pos, &k, &v)) {
            long long s = PyLong_AsLongLong(k);
            if (s == -1 && PyErr_Occurred()) {
                Py_DECREF(pending);
                return -1;
            }
            if (!PyTuple_Check(v) || PyTuple_GET_SIZE(v) != 2) {
                Py_DECREF(pending);
                PyErr_SetString(PyExc_TypeError,
                                "pending promotion must be a (block, ready) "
                                "tuple");
                return -1;
            }
            long long block = PyLong_AsLongLong(PyTuple_GET_ITEM(v, 0));
            double ready = PyFloat_AsDouble(PyTuple_GET_ITEM(v, 1));
            if (PyErr_Occurred()) {
                Py_DECREF(pending);
                return -1;
            }
            if (s < 0 || s >= n_sets) {
                Py_DECREF(pending);
                PyErr_Format(PyExc_ValueError,
                             "pending promotion for L1 set %lld out of range",
                             s);
                return -1;
            }
            pend_set(e, s, block, ready);
        }
        Py_DECREF(pending);
    }
    return 0;
}

/* ================= boundary sync ================= */

static int
sync_out_internal(EngineObject *e)
{
    if (set_attr_double(e->ab, s_next_free, e->a_nf) < 0 ||
        set_attr_double(e->ab, s_busy_cycles, e->a_by) < 0 ||
        set_attr_double(e->ab, s_queued_cycles, e->a_qc) < 0 ||
        set_attr_ll(e->ab, s_transfers, e->a_tr) < 0)
        return -1;
    if (set_attr_double(e->db, s_next_free, e->d_nf) < 0 ||
        set_attr_double(e->db, s_busy_cycles, e->d_by) < 0 ||
        set_attr_double(e->db, s_queued_cycles, e->d_qc) < 0 ||
        set_attr_ll(e->db, s_transfers, e->d_tr) < 0)
        return -1;
    if (set_attr_double(e->mab, s_next_free, e->ma_nf) < 0 ||
        set_attr_double(e->mab, s_busy_cycles, e->ma_by) < 0 ||
        set_attr_double(e->mab, s_queued_cycles, e->ma_qc) < 0 ||
        set_attr_ll(e->mab, s_transfers, e->ma_tr) < 0)
        return -1;
    if (set_attr_double(e->mdb, s_next_free, e->md_nf) < 0 ||
        set_attr_double(e->mdb, s_busy_cycles, e->md_by) < 0 ||
        set_attr_double(e->mdb, s_queued_cycles, e->md_qc) < 0 ||
        set_attr_ll(e->mdb, s_transfers, e->md_tr) < 0)
        return -1;
    if (e->pb != NULL &&
        (set_attr_double(e->pb, s_next_free, e->pb_nf) < 0 ||
         set_attr_double(e->pb, s_busy_cycles, e->pb_by) < 0 ||
         set_attr_double(e->pb, s_queued_cycles, e->pb_qc) < 0 ||
         set_attr_ll(e->pb, s_transfers, e->pb_tr) < 0))
        return -1;
    /* mshr._earliest = min(inflight.values(), default=inf) */
    double earliest = Py_HUGE_VAL;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(e->msh_inf, &pos, &k, &v)) {
        double dv = PyFloat_AsDouble(v);
        if (dv == -1.0 && PyErr_Occurred())
            return -1;
        if (dv < earliest)
            earliest = dv;
    }
    if (set_attr_double(e->mshr, s_earliest, earliest) < 0 ||
        set_attr_ll(e->mshr, s_full_stalls, e->msh_fs) < 0 ||
        set_attr_ll(e->mshr, s_merges, e->msh_mg) < 0 ||
        set_attr_ll(e->mshr, s_peak_occupancy, e->msh_pk) < 0)
        return -1;
    if (PyObject_SetAttr(e->memory, s_completions_attr, e->mem_comp) < 0 ||
        set_attr_ll(e->memory, s_accesses, e->mem_acc) < 0)
        return -1;
    if (PyObject_SetAttr(e->hierarchy, s_pf_inflight_attr, e->pf_inflight) < 0)
        return -1;
    return 0;
}

static int
sync_in_internal(EngineObject *e)
{
    int err = 0;
    e->a_nf = attr_double(e->ab, s_next_free, &err);
    e->a_by = attr_double(e->ab, s_busy_cycles, &err);
    e->a_qc = attr_double(e->ab, s_queued_cycles, &err);
    e->a_tr = attr_ll(e->ab, s_transfers, &err);
    e->d_nf = attr_double(e->db, s_next_free, &err);
    e->d_by = attr_double(e->db, s_busy_cycles, &err);
    e->d_qc = attr_double(e->db, s_queued_cycles, &err);
    e->d_tr = attr_ll(e->db, s_transfers, &err);
    e->ma_nf = attr_double(e->mab, s_next_free, &err);
    e->ma_by = attr_double(e->mab, s_busy_cycles, &err);
    e->ma_qc = attr_double(e->mab, s_queued_cycles, &err);
    e->ma_tr = attr_ll(e->mab, s_transfers, &err);
    e->md_nf = attr_double(e->mdb, s_next_free, &err);
    e->md_by = attr_double(e->mdb, s_busy_cycles, &err);
    e->md_qc = attr_double(e->mdb, s_queued_cycles, &err);
    e->md_tr = attr_ll(e->mdb, s_transfers, &err);
    if (e->pb != NULL) {
        e->pb_nf = attr_double(e->pb, s_next_free, &err);
        e->pb_by = attr_double(e->pb, s_busy_cycles, &err);
        e->pb_qc = attr_double(e->pb, s_queued_cycles, &err);
        e->pb_tr = attr_ll(e->pb, s_transfers, &err);
    }
    e->msh_fs = attr_ll(e->mshr, s_full_stalls, &err);
    e->msh_mg = attr_ll(e->mshr, s_merges, &err);
    e->msh_pk = attr_ll(e->mshr, s_peak_occupancy, &err);
    e->mem_acc = attr_ll(e->memory, s_accesses, &err);
    if (err)
        return -1;
    /* The Python side rebinds these lists (MainMemory.fetch filters
     * by rebuilding); chase the current objects. */
    PyObject *mc = PyObject_GetAttr(e->memory, s_completions_attr);
    if (mc == NULL)
        return -1;
    Py_SETREF(e->mem_comp, mc);
    PyObject *pfq = PyObject_GetAttr(e->hierarchy, s_pf_inflight_attr);
    if (pfq == NULL)
        return -1;
    Py_SETREF(e->pf_inflight, pfq);
    /* rebuild the lazy-deletion heap from the live dict */
    Py_ssize_t sz = PyDict_GET_SIZE(e->msh_inf);
    if (heap_reserve(e, sz ? sz : 1) < 0)
        return -1;
    e->heap_len = 0;
    PyObject *k, *v;
    Py_ssize_t pos = 0;
    while (PyDict_Next(e->msh_inf, &pos, &k, &v)) {
        double dv = PyFloat_AsDouble(v);
        if (dv == -1.0 && PyErr_Occurred())
            return -1;
        long long b = PyLong_AsLongLong(k);
        if (b == -1 && PyErr_Occurred())
            return -1;
        if (heap_push(e, dv, b) < 0)
            return -1;
    }
    return 0;
}

/* ================= prefetch issue ================= */

static int
issue_pf_c(EngineObject *e, long long pb, double t, int into_l1)
{
    e->pfr++;
    long long l2b = pb >> e->l2_shift;
    long long i2 = l2b & e->l2_imask;
    long long t2 = l2b >> e->l2_ibits;
    PyObject *entries = PyList_GET_ITEM(e->l2_entries, i2); /* borrowed */
    PyObject *t2o = PyLong_FromLongLong(t2);
    if (t2o == NULL)
        return -1;
    PyObject *line = PyDict_GetItemWithError(entries, t2o);
    if (line == NULL && PyErr_Occurred()) {
        Py_DECREF(t2o);
        return -1;
    }
    if (line != NULL) {
        e->pfred++;
        Py_DECREF(t2o);
        if (into_l1) {
            /* already in L2: only the L1 promotion remains useful */
            int err = 0;
            double ft = attr_double(line, s_fill_time, &err);
            if (err)
                return -1;
            pend_set(e, pb & e->l1_set_mask, pb, ft > t ? ft : t);
        }
        return 0;
    }
    /* order-preserving expiry filter, in place (identity-stable) */
    Py_ssize_t ln = PyList_GET_SIZE(e->pf_inflight);
    if (ln) {
        PyObject *keep = PyList_New(0);
        if (keep == NULL) {
            Py_DECREF(t2o);
            return -1;
        }
        for (Py_ssize_t q = 0; q < ln; q++) {
            PyObject *x = PyList_GET_ITEM(e->pf_inflight, q);
            double xv = PyFloat_AsDouble(x);
            if (xv == -1.0 && PyErr_Occurred()) {
                Py_DECREF(keep);
                Py_DECREF(t2o);
                return -1;
            }
            if (xv > t && PyList_Append(keep, x) < 0) {
                Py_DECREF(keep);
                Py_DECREF(t2o);
                return -1;
            }
        }
        int r = PyList_SetSlice(e->pf_inflight, 0, ln, keep);
        Py_DECREF(keep);
        if (r < 0) {
            Py_DECREF(t2o);
            return -1;
        }
    }
    if (PyList_GET_SIZE(e->pf_inflight) >= e->pf_max) {
        e->pfdq++;
        Py_DECREF(t2o);
        return 0;
    }
    if (e->md_nf - ((t + 1.0) + (double)e->mem_lat) > e->pf_busy_thr) {
        e->pfdb++;
        Py_DECREF(t2o);
        return 0;
    }
    /* MainMemory.fetch, inlined */
    double tq = t + (double)e->l2_lat;
    double st = tq > e->ma_nf ? tq : e->ma_nf;
    e->ma_nf = st + 1.0;
    e->ma_by += 1.0;
    e->ma_qc += st - tq;
    e->ma_tr += 1;
    double start = st + 1.0;
    if (PyList_GET_SIZE(e->mem_comp) >= e->mem_maxc) {
        if (PyList_Sort(e->mem_comp) < 0) {
            Py_DECREF(t2o);
            return -1;
        }
        double first = PyFloat_AsDouble(PyList_GET_ITEM(e->mem_comp, 0));
        if (first == -1.0 && PyErr_Occurred()) {
            Py_DECREF(t2o);
            return -1;
        }
        if (first > start)
            start = first;
        if (memcomp_prefix_filter(e, start) < 0) {
            Py_DECREF(t2o);
            return -1;
        }
    }
    double ready = start + (double)e->mem_lat;
    st = ready > e->md_nf ? ready : e->md_nf;
    e->md_nf = st + (double)e->mem_beats;
    e->md_by += (double)e->mem_beats;
    e->md_qc += st - ready;
    e->md_tr += 1;
    double done = st + (double)e->mem_beats;
    if (list_append_double(e->mem_comp, done) < 0) {
        Py_DECREF(t2o);
        return -1;
    }
    e->mem_acc++;
    if (list_append_double(e->pf_inflight, done) < 0) {
        Py_DECREF(t2o);
        return -1;
    }
    e->pfi++;
    /* _fill_l2, prefetch insert */
    PyObject *newline =
        PyObject_CallFunction(e->cacheline, "Ld", t2, done);
    if (newline == NULL) {
        Py_DECREF(t2o);
        return -1;
    }
    if (PyObject_SetAttr(newline, s_prefetched, Py_True) < 0) {
        Py_DECREF(newline);
        Py_DECREF(t2o);
        return -1;
    }
    PyObject *victim = NULL;
    if (PyDict_GET_SIZE(entries) >= e->l2_ways) {
        PyObject *fk = dict_first_key(entries);
        Py_INCREF(fk);
        victim = PyDict_GetItem(entries, fk);
        Py_XINCREF(victim);
        if (PyDict_DelItem(entries, fk) < 0) {
            Py_DECREF(fk);
            Py_XDECREF(victim);
            Py_DECREF(newline);
            Py_DECREF(t2o);
            return -1;
        }
        Py_DECREF(fk);
    }
    if (e->lru_pf) {
        /* LRUSet.put_lru rebinds: {t2: line, **entries} */
        PyObject *nd = PyDict_New();
        if (nd == NULL || PyDict_SetItem(nd, t2o, newline) < 0 ||
            PyDict_Merge(nd, entries, 1) < 0) {
            Py_XDECREF(nd);
            Py_XDECREF(victim);
            Py_DECREF(newline);
            Py_DECREF(t2o);
            return -1;
        }
        PyObject *lru = PyList_GET_ITEM(e->l2_sets, i2);
        if (PyObject_SetAttr(lru, s_entries, nd) < 0) {
            Py_DECREF(nd);
            Py_XDECREF(victim);
            Py_DECREF(newline);
            Py_DECREF(t2o);
            return -1;
        }
        PyList_SetItem(e->l2_entries, i2, nd); /* steals nd */
    }
    else {
        if (PyDict_SetItem(entries, t2o, newline) < 0) {
            Py_XDECREF(victim);
            Py_DECREF(newline);
            Py_DECREF(t2o);
            return -1;
        }
    }
    Py_DECREF(newline);
    Py_DECREF(t2o);
    if (victim != NULL) {
        int vpf = attr_true(victim, s_prefetched);
        if (vpf < 0) {
            Py_DECREF(victim);
            return -1;
        }
        if (vpf)
            e->pfev++;
        int vd = attr_true(victim, s_dirty);
        if (vd < 0) {
            Py_DECREF(victim);
            return -1;
        }
        if (vd) {
            e->wb2++;
            st = done > e->md_nf ? done : e->md_nf;
            e->md_nf = st + (double)e->mem_beats;
            e->md_by += (double)e->mem_beats;
            e->md_qc += st - done;
            e->md_tr += 1;
        }
        Py_DECREF(victim);
    }
    if (into_l1)
        pend_set(e, pb & e->l1_set_mask, pb, done);
    return 0;
}

static int tcp_train(EngineObject *e, long long s, long long tag,
                     long long block, double v);

/* ================= DBCP (access-stream correlation) ================= */

/* DeadBlockCorrelatingPrefetcher.observe_access + the prefetch issue of
 * its request */
static int
dbcp_access(EngineObject *e, long long block, unsigned long long pc, int hit,
            double now)
{
    unsigned long long base = (unsigned long long)block;
    if (hit) {
        Py_ssize_t j = lm_find(&e->live, block);
        if (j >= 0)
            base = (unsigned long long)e->live.vals[j];
    }
    long long sig = (long long)((base + pc) & e->sig_mask);
    if (lm_set(&e->live, block, sig) < 0)
        return -1;
    /* LRUSet.get: a probe hit promotes the entry to MRU */
    SetTable *t = &e->dt;
    Py_ssize_t set = sig & (t->nsets - 1);
    Py_ssize_t slot = st_get(t, set, sig >> e->dt_shift);
    if (slot < 0)
        return 0;
    long long succ = st_words(t, slot)[0];
    if (succ == block)
        return 0;
    e->dead++;
    e->pfp++;
    return issue_pf_c(e, succ, now + (double)e->pf_delay, 0);
}

/* observe_eviction: the victim's final signature awaits its successor */
static void
dbcp_evict(EngineObject *e, long long vblock)
{
    long long sig;
    if (lm_pop(&e->live, vblock, &sig)) {
        e->pend_valid = 1;
        e->pend_sig = sig;
    }
}

/* observe_miss: learn pending death signature -> this miss */
static void
dbcp_miss(EngineObject *e, long long block)
{
    e->pfl++;
    if (e->pend_valid) {
        SetTable *t = &e->dt;
        Py_ssize_t slot = st_put(t, e->pend_sig & (t->nsets - 1),
                                 e->pend_sig >> e->dt_shift);
        st_words(t, slot)[0] = block;
        e->pend_valid = 0;
        e->pfu++;
    }
}

/* ================= hybrid (timekeeping gate, L1 promotion) ========== */

/* TimekeepingDeadBlockPredictor.observe_eviction */
static void
db_record(EngineObject *e, long long vblock, double fill_time,
          double last_access)
{
    SetTable *t = &e->dh;
    double live_time = last_access - fill_time;
    if (!(live_time > 0.0))
        live_time = 0.0; /* max(0.0, x) */
    Py_ssize_t set = vblock & (t->nsets - 1);
    Py_ssize_t w = st_find(t, set, vblock);
    if (w >= 0)
        live_time = (t->fval[set * t->ways + w] + live_time) / 2.0;
    t->fval[st_put(t, set, vblock)] = live_time;
    e->de++;
}

/* TimekeepingDeadBlockPredictor.is_dead */
static int
db_is_dead(EngineObject *e, long long block, double last_access, double now)
{
    e->dq++;
    double idle = now - last_access;
    if (idle < e->min_idle)
        return 0;
    SetTable *t = &e->dh;
    Py_ssize_t set = block & (t->nsets - 1);
    Py_ssize_t w = st_find(t, set, block);
    int dead;
    if (w < 0)
        dead = idle > e->default_idle;
    else {
        double thr = t->fval[set * t->ways + w] * e->dead_factor;
        dead = idle > (thr > e->min_idle ? thr : e->min_idle);
    }
    if (dead)
        e->dv++;
    return dead;
}

/* MemoryHierarchy._fill_l1 on the planes: refresh a resident line, else
 * replace the single way, write back a dirty victim and report its
 * eviction (in C for DBCP and the hybrid, else through Python). */
static int
fill_l1_c(EngineObject *e, long long s, long long tag, double now, int dirty,
          int prefetched)
{
    long long vt = e->l1tag[s];
    if (vt == tag) {
        e->l1la[s] = now;
        if (dirty)
            e->l1dirty[s] = 1;
        return 0;
    }
    int vd = e->l1dirty[s];
    double old_ft = e->l1ft[s];
    double old_la = e->l1la[s];
    e->l1tag[s] = tag;
    e->l1ft[s] = now;
    e->l1la[s] = now;
    e->l1dirty[s] = (unsigned char)dirty;
    e->l1pf[s] = (unsigned char)prefetched;
    if (vt < 0)
        return 0;
    if (vd) {
        e->wb1++;
        double st = now > e->d_nf ? now : e->d_nf;
        e->d_nf = st + (double)e->l1_beats;
        e->d_by += (double)e->l1_beats;
        e->d_qc += st - now;
        e->d_tr += 1;
    }
    long long vblock = (vt << e->l1_ib) | s;
    if (e->trainer == TR_DBCP)
        dbcp_evict(e, vblock);
    else if (e->trainer == TR_HYBRID)
        db_record(e, vblock, old_ft, old_la);
    else if (e->needs_evict) {
        e->cb_evict++;
        PyObject *r = PyObject_CallFunction(e->evict_cb, "LLddd", s, vt, now,
                                            old_ft, old_la);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return 0;
}

/* MemoryHierarchy._try_promote for set s at time now */
static int
try_promote(EngineObject *e, long long s, double now)
{
    if (!e->pl_seq[s])
        return 0;
    long long block = e->pl_block[s];
    double ready = e->pl_ready[s];
    if (ready > now)
        return 0;
    if (now - ready > e->ttl) {
        pend_del(e, s);
        return 0;
    }
    long long l2b = block >> e->l2_shift;
    long long i2 = l2b & e->l2_imask;
    long long t2 = l2b >> e->l2_ibits;
    PyObject *entries = PyList_GET_ITEM(e->l2_entries, i2); /* borrowed */
    PyObject *t2o = PyLong_FromLongLong(t2);
    if (t2o == NULL)
        return -1;
    PyObject *line = PyDict_GetItemWithError(entries, t2o);
    if (line == NULL) {
        Py_DECREF(t2o);
        if (PyErr_Occurred())
            return -1;
        pend_del(e, s);
        return 0;
    }
    long long tag = block >> e->l1_ib;
    if (e->l1tag[s] == tag) {
        Py_DECREF(t2o);
        pend_del(e, s);
        return 0;
    }
    if (e->l1tag[s] >= 0) {
        /* l1_promotion_gate: the victim must be predicted dead */
        long long vblock = (e->l1tag[s] << e->tht_ib) | s;
        if (!db_is_dead(e, vblock, e->l1la[s], now)) {
            e->pd++;
            Py_DECREF(t2o);
            return 0;
        }
        e->pa++;
    }
    /* the promotion reads the block out of L2: LRU promote, refresh its
     * last access, consume the prefetch bit */
    Py_INCREF(line);
    int fail = PyDict_DelItem(entries, t2o) < 0 ||
               PyDict_SetItem(entries, t2o, line) < 0 ||
               set_attr_double(line, s_last_access, now) < 0;
    Py_DECREF(t2o);
    if (!fail) {
        int is_pf = attr_true(line, s_prefetched);
        if (is_pf < 0)
            fail = 1;
        else if (is_pf) {
            if (PyObject_SetAttr(line, s_prefetched, Py_False) < 0)
                fail = 1;
            e->useful++;
        }
    }
    Py_DECREF(line);
    if (fail)
        return -1;
    double st, comp;
    if (e->pb != NULL) {
        st = now > e->pb_nf ? now : e->pb_nf;
        e->pb_nf = st + (double)e->l1_beats;
        e->pb_by += (double)e->l1_beats;
        e->pb_qc += st - now;
        e->pb_tr += 1;
    }
    else {
        st = now > e->d_nf ? now : e->d_nf;
        e->d_nf = st + (double)e->l1_beats;
        e->d_by += (double)e->l1_beats;
        e->d_qc += st - now;
        e->d_tr += 1;
    }
    comp = st + (double)e->l1_beats;
    if (fill_l1_c(e, s, tag, comp, 0, 1) < 0)
        return -1;
    e->l1p++;
    pend_del(e, s);
    return 0;
}

/* ================= the TCP family ================= */

/* PHTIndexScheme.compute (truncated add) on a THT row sum */
static inline Py_ssize_t
pht_index(const EngineObject *e, long long sum, long long s)
{
    long long hi = sum & e->seq_mask;
    return e->n_bits == 0 ? hi : ((hi << e->n_bits) | (s & e->miss_mask));
}

/* PatternHistoryTable.predict without the copy: *out is the successor
 * list (new ref) of entry `key` in PHT set `pidx`, promoted to MRU, or
 * NULL on a PHT miss */
static int
pht_predict(EngineObject *e, Py_ssize_t pidx, PyObject *key, PyObject **out)
{
    *out = NULL;
    e->pl++;
    PyObject *entries =
        PyObject_GetAttr(PyList_GET_ITEM(e->pht_sets, pidx), s_entries);
    if (entries == NULL)
        return -1;
    PyObject *succ = PyDict_GetItemWithError(entries, key);
    if (succ == NULL) {
        Py_DECREF(entries);
        return PyErr_Occurred() ? -1 : 0;
    }
    Py_INCREF(succ);
    if (PyDict_DelItem(entries, key) < 0 ||
        PyDict_SetItem(entries, key, succ) < 0) {
        Py_DECREF(succ);
        Py_DECREF(entries);
        return -1;
    }
    Py_DECREF(entries);
    e->ph++;
    *out = succ;
    return 0;
}

/* PatternHistoryTable.update: learn (sequence ending in `et`) -> tag in
 * PHT set `pidx` */
static int
pht_update(EngineObject *e, Py_ssize_t pidx, PyObject *et, PyObject *tago,
           long long tag)
{
    e->pu++;
    PyObject *entries =
        PyObject_GetAttr(PyList_GET_ITEM(e->pht_sets, pidx), s_entries);
    if (entries == NULL)
        return -1;
    PyObject *succ = PyDict_GetItemWithError(entries, et);
    if (succ == NULL) {
        if (PyErr_Occurred())
            goto fail;
        if (PyDict_GET_SIZE(entries) >= e->pht_ways) {
            PyObject *fk = dict_first_key(entries);
            Py_INCREF(fk);
            int r = PyDict_DelItem(entries, fk);
            Py_DECREF(fk);
            if (r < 0)
                goto fail;
        }
        PyObject *lst = PyList_New(1);
        if (lst == NULL)
            goto fail;
        Py_INCREF(tago);
        PyList_SET_ITEM(lst, 0, tago);
        int r = PyDict_SetItem(entries, et, lst);
        Py_DECREF(lst);
        if (r < 0)
            goto fail;
        Py_DECREF(entries);
        return 0;
    }
    /* LRU promote, then MRU-front the successor list */
    Py_INCREF(succ);
    if (PyDict_DelItem(entries, et) < 0 ||
        PyDict_SetItem(entries, et, succ) < 0)
        goto fail_succ;
    Py_ssize_t len = PyList_GET_SIZE(succ);
    if (len) {
        long long s0 = PyLong_AsLongLong(PyList_GET_ITEM(succ, 0));
        if (s0 == -1 && PyErr_Occurred())
            goto fail_succ;
        if (s0 == tag)
            len = 0; /* already the MRU successor */
    }
    else
        len = -1; /* empty list: insert only */
    if (len) {
        for (Py_ssize_t q = 0; q < len; q++) {
            long long qv = PyLong_AsLongLong(PyList_GET_ITEM(succ, q));
            if (qv == -1 && PyErr_Occurred())
                goto fail_succ;
            if (qv == tag) {
                if (PyList_SetSlice(succ, q, q + 1, NULL) < 0)
                    goto fail_succ;
                break;
            }
        }
        if (PyList_Insert(succ, 0, tago) < 0)
            goto fail_succ;
        Py_ssize_t ln2 = PyList_GET_SIZE(succ);
        if (ln2 > e->pht_targets &&
            PyList_SetSlice(succ, e->pht_targets, ln2, NULL) < 0)
            goto fail_succ;
    }
    Py_DECREF(succ);
    Py_DECREF(entries);
    return 0;
fail_succ:
    Py_DECREF(succ);
fail:
    Py_DECREF(entries);
    return -1;
}

/* TagHistoryTable.push: row s becomes row[1:] + (tag,); returns 0 and
 * keeps the running row sum in thtsum[s] */
static int
tht_push(EngineObject *e, long long s, PyObject *tago, long long tag)
{
    e->tp++;
    PyObject *old_seq = PyList_GET_ITEM(e->tht_hist, s); /* borrowed */
    Py_ssize_t klen = PyTuple_GET_SIZE(old_seq);
    long long seq0 = PyLong_AsLongLong(PyTuple_GET_ITEM(old_seq, 0));
    if (seq0 == -1 && PyErr_Occurred())
        return -1;
    PyObject *newseq = PyTuple_New(klen);
    if (newseq == NULL)
        return -1;
    for (Py_ssize_t q = 1; q < klen; q++) {
        PyObject *it = PyTuple_GET_ITEM(old_seq, q);
        Py_INCREF(it);
        PyTuple_SET_ITEM(newseq, q - 1, it);
    }
    Py_INCREF(tago);
    PyTuple_SET_ITEM(newseq, klen - 1, tago);
    if (PyList_SetItem(e->tht_hist, s, newseq) < 0) /* steals */
        return -1;
    e->thtsum[s] = e->thtsum[s] - seq0 + tag;
    return 0;
}

/* issue every successor in `succ` but the demand block itself; returns
 * the number issued, or -1 */
static long long
tcp_issue(EngineObject *e, PyObject *succ, long long s, long long block,
          double v)
{
    double launch = v + (double)e->pf_delay;
    long long npred = 0;
    Py_ssize_t nsucc = PyList_GET_SIZE(succ);
    for (Py_ssize_t q = 0; q < nsucc; q++) {
        long long nt = PyLong_AsLongLong(PyList_GET_ITEM(succ, q));
        if (nt == -1 && PyErr_Occurred())
            return -1;
        long long pb = (nt << e->tht_ib) | s;
        if (pb == block)
            continue;
        npred++;
        if (issue_pf_c(e, pb, launch, e->into_l1) < 0)
            return -1;
    }
    return npred;
}

/* the TCP update half shared by every variant: read row s, learn
 * old row -> tag, push tag.  *pidx_old is the old row's PHT set. */
static int
tcp_update(EngineObject *e, long long s, PyObject *tago, long long tag)
{
    e->tl++;
    PyObject *old_seq = PyList_GET_ITEM(e->tht_hist, s); /* borrowed */
    PyObject *et = PyTuple_GET_ITEM(old_seq, PyTuple_GET_SIZE(old_seq) - 1);
    if (pht_update(e, pht_index(e, e->thtsum[s], s), et, tago, tag) < 0 ||
        tht_push(e, s, tago, tag) < 0)
        return -1;
    e->pfu++;
    return 0;
}

/* TagCorrelatingPrefetcher.observe_miss (also MultiTargetTCP and the
 * hybrid's TCP half) */
static int
tcp_train(EngineObject *e, long long s, long long tag, long long block,
          double v)
{
    e->pfl++;
    PyObject *tago = PyLong_FromLongLong(tag);
    if (tago == NULL)
        return -1;
    PyObject *succ = NULL;
    int r = -1;
    if (tcp_update(e, s, tago, tag) == 0 &&
        pht_predict(e, pht_index(e, e->thtsum[s], s), tago, &succ) == 0) {
        long long npred = succ ? tcp_issue(e, succ, s, block, v) : 0;
        if (npred >= 0) {
            e->pfp += npred;
            r = 0;
        }
    }
    Py_XDECREF(succ);
    Py_DECREF(tago);
    return r;
}

/* StrideFilteredTCP.observe_miss: the per-set detector first; a
 * confirmed stride pushes the THT and predicts tag + stride, leaving
 * the PHT alone */
static int
tcp_stride_train(EngineObject *e, long long s, long long tag,
                 long long block, double v)
{
    e->dobs++;
    long long last = e->det_last[s], stride = e->det_stride[s];
    long long conf = e->det_conf[s];
    long long observed = tag - last;
    int predicts = 0;
    if (conf < 0) {
        stride = 0;
        conf = 0;
    }
    else {
        if (observed != 0 && observed == stride)
            conf++;
        else {
            conf = observed != 0 ? 1 : 0;
            stride = observed;
        }
        predicts = stride != 0 && conf >= e->det_depth - 1;
    }
    e->det_last[s] = tag;
    e->det_stride[s] = stride;
    e->det_conf[s] = conf;
    if (!predicts)
        return tcp_train(e, s, tag, block, v);
    e->dhits++;
    PyObject *tago = PyLong_FromLongLong(tag);
    if (tago == NULL)
        return -1;
    int r = tht_push(e, s, tago, tag);
    Py_DECREF(tago);
    if (r < 0)
        return -1;
    e->pfl++;
    long long ptag = tag + stride;
    if (ptag < 0)
        return 0;
    e->sp++;
    e->pfp++;
    return issue_pf_c(e, (ptag << e->tht_ib) | s, v + (double)e->pf_delay,
                      e->into_l1);
}

/* the confidence counter of `key` (0 when absent) */
static int
conf_get(EngineObject *e, PyObject *key, long long *out)
{
    PyObject *c = PyDict_GetItemWithError(e->conf, key);
    if (c == NULL) {
        *out = 0;
        return PyErr_Occurred() ? -1 : 0;
    }
    *out = PyLong_AsLongLong(c);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* ConfidenceFilteredTCP.observe_miss: a pre-update predict trains the
 * saturating counter of (old set, old tag); the lookup issues only when
 * the target entry's counter reaches the threshold */
static int
tcp_conf_train(EngineObject *e, long long s, long long tag, long long block,
               double v)
{
    e->pfl++;
    PyObject *old_seq = PyList_GET_ITEM(e->tht_hist, s); /* borrowed */
    PyObject *et = PyTuple_GET_ITEM(old_seq, PyTuple_GET_SIZE(old_seq) - 1);
    Py_ssize_t pidx = pht_index(e, e->thtsum[s], s);
    PyObject *tago = PyLong_FromLongLong(tag);
    PyObject *key = Py_BuildValue("(nO)", pidx, et);
    PyObject *prev = NULL, *succ = NULL, *cval = NULL;
    int r = -1;
    long long c;
    if (tago == NULL || key == NULL || pht_predict(e, pidx, et, &prev) < 0 ||
        conf_get(e, key, &c) < 0)
        goto done;
    int hit = 0;
    if (prev != NULL && PyList_GET_SIZE(prev)) {
        long long p0 = PyLong_AsLongLong(PyList_GET_ITEM(prev, 0));
        if (p0 == -1 && PyErr_Occurred())
            goto done;
        hit = p0 == tag;
    }
    if (hit)
        c = c + 1 < e->conf_max ? c + 1 : e->conf_max;
    else
        c = c - 1 > 0 ? c - 1 : 0;
    cval = PyLong_FromLongLong(c);
    if (cval == NULL || PyDict_SetItem(e->conf, key, cval) < 0 ||
        tcp_update(e, s, tago, tag) < 0)
        goto done;
    pidx = pht_index(e, e->thtsum[s], s);
    if (pht_predict(e, pidx, tago, &succ) < 0)
        goto done;
    r = 0;
    if (succ == NULL || !PyList_GET_SIZE(succ))
        goto done;
    Py_SETREF(key, Py_BuildValue("(nO)", pidx, tago));
    if (key == NULL || conf_get(e, key, &c) < 0) {
        r = -1;
        goto done;
    }
    if (c < e->conf_thr) {
        e->sup++;
        goto done;
    }
    long long npred = tcp_issue(e, succ, s, block, v);
    if (npred < 0)
        r = -1;
    else
        e->pfp += npred;
done:
    Py_XDECREF(tago);
    Py_XDECREF(key);
    Py_XDECREF(prev);
    Py_XDECREF(succ);
    Py_XDECREF(cval);
    return r;
}

/* LookaheadTCP.observe_miss: up to `degree` predictions, each pushed
 * back through a speculative copy of the row; the chain stops at a PHT
 * miss or a block it already issued */
static int
tcp_look_train(EngineObject *e, long long s, long long tag, long long block,
               double v)
{
    e->pfl++;
    PyObject *tago = PyLong_FromLongLong(tag);
    if (tago == NULL)
        return -1;
    if (tcp_update(e, s, tago, tag) < 0) {
        Py_DECREF(tago);
        return -1;
    }
    PyObject *row = PyList_GET_ITEM(e->tht_hist, s); /* borrowed */
    Py_ssize_t klen = PyTuple_GET_SIZE(row);
    if (klen > e->spec_len) {
        /* a probe may have rewritten the row's length */
        long long *grown = PyMem_Realloc(e->spec, klen * sizeof(long long));
        if (grown == NULL) {
            Py_DECREF(tago);
            PyErr_NoMemory();
            return -1;
        }
        e->spec = grown;
        e->spec_len = klen;
    }
    for (Py_ssize_t q = 0; q < klen; q++) {
        e->spec[q] = PyLong_AsLongLong(PyTuple_GET_ITEM(row, q));
        if (e->spec[q] == -1 && PyErr_Occurred()) {
            Py_DECREF(tago);
            return -1;
        }
    }
    long long sum = e->thtsum[s];
    double launch = v + (double)e->pf_delay;
    Py_ssize_t nseen = 0;
    e->seen[nseen++] = block;
    PyObject *key = tago; /* owned */
    int r = 0;
    for (long long step = 0; step < e->degree; step++) {
        PyObject *succ;
        if (pht_predict(e, pht_index(e, sum, s), key, &succ) < 0) {
            r = -1;
            break;
        }
        if (succ == NULL || !PyList_GET_SIZE(succ)) {
            Py_XDECREF(succ);
            break;
        }
        long long nt = PyLong_AsLongLong(PyList_GET_ITEM(succ, 0));
        Py_DECREF(succ);
        if (nt == -1 && PyErr_Occurred()) {
            r = -1;
            break;
        }
        long long pb = (nt << e->tht_ib) | s;
        int repeated = 0;
        for (Py_ssize_t q = 0; q < nseen; q++)
            repeated |= e->seen[q] == pb;
        if (repeated)
            break; /* the chain closed on itself */
        e->seen[nseen++] = pb;
        e->pfp++;
        if (issue_pf_c(e, pb, launch, e->into_l1) < 0) {
            r = -1;
            break;
        }
        sum = sum - e->spec[0] + nt;
        memmove(e->spec, e->spec + 1, (klen - 1) * sizeof(long long));
        e->spec[klen - 1] = nt;
        Py_SETREF(key, PyLong_FromLongLong(nt));
        if (key == NULL) {
            r = -1;
            break;
        }
    }
    Py_XDECREF(key);
    return r;
}

/* ================= the other miss-stream trainers ================= */

/* StridePrefetcher.observe_miss: the PC-indexed RPT with its two-bit
 * state machine */
enum { RPT_INITIAL, RPT_TRANSIENT, RPT_STEADY, RPT_NO_PRED };

static int
stride_train(EngineObject *e, long long block, unsigned long long pc,
             double v)
{
    e->pfl++;
    SetTable *t = &e->rpt;
    Py_ssize_t set = (Py_ssize_t)((pc >> 2) & (unsigned long long)(t->nsets - 1));
    Py_ssize_t slot = st_get(t, set, (long long)pc);
    if (slot < 0) {
        long long *w = st_words(t, st_put(t, set, (long long)pc));
        w[0] = block;
        w[1] = 0;
        w[2] = RPT_INITIAL;
        return 0;
    }
    long long *w = st_words(t, slot); /* last block, stride, state */
    long long observed = block - w[0];
    e->pfu++;
    if (observed == w[1] && observed != 0)
        w[2] = (w[2] == RPT_TRANSIENT || w[2] == RPT_STEADY) ? RPT_STEADY
                                                              : RPT_TRANSIENT;
    else {
        if (w[2] == RPT_STEADY)
            w[2] = RPT_INITIAL;
        else if (w[2] == RPT_INITIAL)
            w[2] = RPT_TRANSIENT;
        else
            w[2] = RPT_NO_PRED;
        w[1] = observed;
    }
    w[0] = block;
    if (w[2] != RPT_STEADY || w[1] == 0)
        return 0;
    e->pfp += e->degree;
    long long stride = w[1];
    double launch = v + (double)e->pf_delay;
    for (long long step = 1; step <= e->degree; step++) {
        long long pb = block + stride * step;
        if (pb > 0 && issue_pf_c(e, pb, launch, 0) < 0)
            return -1;
    }
    return 0;
}

/* StreamBufferPrefetcher.observe_miss: the first buffer whose window
 * covers the block advances; otherwise the first empty buffer, else the
 * least recently used one, restarts after the block */
static int
stream_train(EngineObject *e, long long block, double v)
{
    e->pfl++;
    double launch = v + (double)e->pf_delay;
    for (Py_ssize_t q = 0; q < e->sb_n; q++) {
        long long ahead = block - e->sb_next[q];
        if (!e->sb_valid[q] || ahead < 0 || ahead >= e->sb_depth)
            continue;
        long long consumed = ahead + 1;
        long long first_new = e->sb_next[q] + e->sb_depth;
        e->sb_next[q] += consumed;
        e->sb_use[q] = v;
        e->pfp += consumed;
        e->pfu++;
        for (long long k = 0; k < consumed; k++) {
            if (issue_pf_c(e, first_new + k, launch, 0) < 0)
                return -1;
        }
        return 0;
    }
    Py_ssize_t slot = 0;
    double oldest = Py_HUGE_VAL;
    for (Py_ssize_t q = 0; q < e->sb_n; q++) {
        if (!e->sb_valid[q]) {
            slot = q;
            break;
        }
        if (e->sb_use[q] < oldest) {
            oldest = e->sb_use[q];
            slot = q;
        }
    }
    e->sb_valid[slot] = 1;
    e->sb_next[slot] = block + 1;
    e->sb_use[slot] = v;
    e->pfp += e->sb_depth;
    for (long long k = 0; k < e->sb_depth; k++) {
        if (issue_pf_c(e, block + 1 + k, launch, 0) < 0)
            return -1;
    }
    return 0;
}

/* MarkovPrefetcher.observe_miss: learn previous -> block (MRU-first,
 * bounded successor list), then predict the block's successors */
static int
markov_train(EngineObject *e, long long block, double v)
{
    e->pfl++;
    SetTable *t = &e->mk;
    Py_ssize_t targets = t->vw - 1;
    if (e->mk_prev_valid && e->mk_prev != block) {
        Py_ssize_t set = e->mk_prev & (t->nsets - 1);
        Py_ssize_t slot = st_get(t, set, e->mk_prev);
        if (slot < 0) {
            slot = st_put(t, set, e->mk_prev);
            st_words(t, slot)[0] = 0;
        }
        long long *w = st_words(t, slot); /* count, successors */
        long long *succ = w + 1;
        Py_ssize_t count = w[0];
        for (Py_ssize_t q = 0; q < count; q++) {
            if (succ[q] == block) {
                memmove(succ + q, succ + q + 1,
                        (count - q - 1) * sizeof(long long));
                count--;
                break;
            }
        }
        if (count == targets)
            count--;
        memmove(succ + 1, succ, count * sizeof(long long));
        succ[0] = block;
        w[0] = count + 1;
        e->pfu++;
    }
    e->mk_prev_valid = 1;
    e->mk_prev = block;
    Py_ssize_t slot = st_get(t, block & (t->nsets - 1), block);
    if (slot < 0)
        return 0;
    long long *w = st_words(t, slot);
    e->pfp += w[0];
    double launch = v + (double)e->pf_delay;
    for (long long q = 0; q < w[0]; q++) {
        if (issue_pf_c(e, w[1 + q], launch, 0) < 0)
            return -1;
    }
    return 0;
}

/* one primary demand miss through the attached prefetcher */
static int
train_miss(EngineObject *e, long long s, long long tag, long long block,
           Py_ssize_t i, int load, double v)
{
    switch (e->trainer) {
    case TR_NULL:
        e->pfl++;
        return 0;
    case TR_NEXTLINE: {
        e->pfl++;
        e->pfp += e->degree;
        double launch = v + (double)e->pf_delay;
        for (long long k = 1; k <= e->degree; k++) {
            if (issue_pf_c(e, block + k, launch, 0) < 0)
                return -1;
        }
        return 0;
    }
    case TR_STRIDE:
        return stride_train(e, block, e->pcs[i], v);
    case TR_STREAM:
        return stream_train(e, block, v);
    case TR_MARKOV:
        return markov_train(e, block, v);
    case TR_DBCP:
        dbcp_miss(e, block);
        return 0;
    case TR_TCP:
    case TR_HYBRID:
        return tcp_train(e, s, tag, block, v);
    case TR_TCP_STRIDE:
        return tcp_stride_train(e, s, tag, block, v);
    case TR_TCP_CONF:
        return tcp_conf_train(e, s, tag, block, v);
    case TR_TCP_LOOK:
        return tcp_look_train(e, s, tag, block, v);
    default:
        break;
    }
    /* a prefetcher without a C trainer: its own observe_miss */
    e->cb_observe++;
    PyObject *reqs = PyObject_CallFunction(e->observe_cb, "LLLKOd", s, tag,
                                           block, e->pcs[i],
                                           load ? Py_False : Py_True, v);
    if (reqs == NULL)
        return -1;
    int r = 0;
    if (reqs != Py_None) {
        double launch = v + (double)e->pf_delay;
        Py_ssize_t nr = PyList_GET_SIZE(reqs);
        for (Py_ssize_t q = 0; q < nr && r == 0; q++) {
            long long pb = PyLong_AsLongLong(PyList_GET_ITEM(reqs, q));
            if ((pb == -1 && PyErr_Occurred()) || issue_pf_c(e, pb, launch, 0) < 0)
                r = -1;
        }
    }
    Py_DECREF(reqs);
    return r;
}

/* ================= the core loop ================= */

static PyObject *
Engine_step(EngineObject *e, PyObject *args)
{
    Py_ssize_t i, limit, P;
    double li, lc, nd;
    long long last_fb;
    if (!PyArg_ParseTuple(args, "nndddnL", &i, &limit, &li, &lc, &nd, &P,
                          &last_fb))
        return NULL;
    if (i < 0 || limit > e->n || i > limit) {
        PyErr_SetString(PyExc_ValueError, "step range out of bounds");
        return NULL;
    }
    struct timespec ts0, ts1;
    clock_gettime(CLOCK_MONOTONIC, &ts0);

    for (; i < limit; i++) {
        long long s = e->idx[i];
        nd += e->incs[i];
        long long floor_ = e->instr[i] - e->window;
        while (P < i) {
            if (e->instr[P] > floor_)
                break;
            double c = e->cmt_arr[P];
            if (c > nd)
                nd = c;
            P++;
        }
        if (i >= e->lsq) {
            double c = e->cmt_arr[i - e->lsq];
            if (c > nd)
                nd = c;
        }
        if (e->model_icache) {
            long long fb = e->fb[i];
            if (fb != last_fb) {
                last_fb = fb;
                PyObject *fbo = PyLong_FromLongLong(fb);
                if (fbo == NULL)
                    goto fail;
                int res = PySet_Contains(e->resident, fbo);
                Py_DECREF(fbo);
                if (res < 0)
                    goto fail;
                if (res) {
                    e->ifc++;
                    e->cb_l1i++;
                    PyObject *r = PyObject_CallFunction(
                        e->l1i_lookup, "LLOd", fb & e->l1i_mask,
                        fb >> e->l1i_bits, Py_False, nd);
                    if (r == NULL)
                        goto fail;
                    Py_DECREF(r);
                }
                else {
                    /* real instruction fetch: run interpreted with
                     * component state synced around the call */
                    if (sync_out_internal(e) < 0)
                        goto fail;
                    e->cb_ifetch++;
                    PyObject *r = PyObject_CallFunction(
                        e->ifetch_cb, "dKL", nd, e->pcs[i], fb);
                    if (r == NULL)
                        goto fail;
                    double pen = PyFloat_AsDouble(r);
                    Py_DECREF(r);
                    if (pen == -1.0 && PyErr_Occurred())
                        goto fail;
                    if (sync_in_internal(e) < 0)
                        goto fail;
                    if (pen > 0.0)
                        nd += pen;
                }
            }
        }
        double v = li + e->ls_s;
        if (nd > v)
            v = nd;
        long long dep = e->deps[i];
        if (dep) {
            Py_ssize_t j = i - (Py_ssize_t)dep;
            if (j < 0)
                j += e->n; /* python negative indexing */
            double c = e->comp_arr[j];
            if (c > v)
                v = c;
        }
        li = v;
        int load = e->load[i];
        long long tag = e->tags[i];
        double comp;
        if (e->trainer == TR_HYBRID && e->pl_count &&
            try_promote(e, s, v) < 0)
            goto fail;
        if (e->l1tag[s] == tag) {
            /* inlined direct-mapped hit */
            if (load) {
                comp = v + (double)e->l1_lat;
                e->ldc++;
            }
            else {
                comp = v + 1.0;
                e->l1dirty[s] = 1;
                e->stc++;
            }
            e->l1la[s] = v;
            e->dc++;
            e->hc++;
            if (e->trainer == TR_HYBRID && e->l1pf[s]) {
                /* a hit on a promoted line trains the TCP as a virtual
                 * miss */
                e->l1pf[s] = 0;
                e->l1ph++;
                if (tcp_train(e, s, tag, e->blocks[i], v) < 0)
                    goto fail;
            }
            if (e->trainer == TR_DBCP &&
                dbcp_access(e, e->blocks[i], e->pcs[i], 1, v) < 0)
                goto fail;
        }
        else {
            /* ---- flattened demand miss ---- */
            e->dc++;
            if (load)
                e->ldc++;
            else
                e->stc++;
            e->l1m++;
            long long block = e->blocks[i];
            if (e->trainer == TR_DBCP &&
                dbcp_access(e, block, e->pcs[i], 0, v) < 0)
                goto fail;
            if (e->trainer == TR_HYBRID && e->pl_seq[s] &&
                e->pl_block[s] == block)
                pend_del(e, s); /* the demand beat the promotion */
            PyObject *blocko = PyLong_FromLongLong(block);
            if (blocko == NULL)
                goto fail;
            PyObject *merged = PyDict_GetItemWithError(e->msh_inf, blocko);
            if (merged == NULL && PyErr_Occurred()) {
                Py_DECREF(blocko);
                goto fail;
            }
            double mval = 0.0;
            if (merged != NULL) {
                mval = PyFloat_AsDouble(merged);
                if (mval == -1.0 && PyErr_Occurred()) {
                    Py_DECREF(blocko);
                    goto fail;
                }
            }
            if (merged != NULL && mval > v) {
                /* MSHR merge */
                e->msh_mg++;
                e->mgd++;
                comp = mval;
                Py_DECREF(blocko);
            }
            else {
                /* MSHR acquire (reap only when full) */
                double start;
                if (PyDict_GET_SIZE(e->msh_inf) < e->msh_entries)
                    start = v;
                else {
                    while (e->heap_len && e->heap[0].t <= v) {
                        HeapItem it;
                        heap_popmin(e, &it);
                        if (mshr_del_if_match(e, it.b, it.t) < 0) {
                            Py_DECREF(blocko);
                            goto fail;
                        }
                    }
                    if (PyDict_GET_SIZE(e->msh_inf) < e->msh_entries)
                        start = v;
                    else {
                        for (;;) {
                            if (e->heap_len == 0) {
                                PyErr_SetString(PyExc_RuntimeError,
                                                "MSHR heap drained while "
                                                "the file is full");
                                Py_DECREF(blocko);
                                goto fail;
                            }
                            HeapItem top = e->heap[0];
                            int m = mshr_match(e, top.b, top.t);
                            if (m < 0) {
                                Py_DECREF(blocko);
                                goto fail;
                            }
                            if (m) {
                                start = top.t;
                                break;
                            }
                            HeapItem dump;
                            heap_popmin(e, &dump);
                        }
                        e->msh_fs++;
                        while (e->heap_len && e->heap[0].t <= start) {
                            HeapItem it;
                            heap_popmin(e, &it);
                            if (mshr_del_if_match(e, it.b, it.t) < 0) {
                                Py_DECREF(blocko);
                                goto fail;
                            }
                        }
                    }
                }
                /* L1/L2 address channel: one command beat */
                double t_ = start + (double)e->l1_lat;
                double st_ = t_ > e->a_nf ? t_ : e->a_nf;
                e->a_nf = st_ + 1.0;
                e->a_by += 1.0;
                e->a_qc += st_ - t_;
                e->a_tr += 1;
                double arrival = st_ + 1.0;
                e->l2a++;
                long long i2 = e->l2i[i];
                long long t2 = e->l2t[i];
                PyObject *l2e = PyList_GET_ITEM(e->l2_entries, i2);
                PyObject *t2o = PyLong_FromLongLong(t2);
                if (t2o == NULL) {
                    Py_DECREF(blocko);
                    goto fail;
                }
                PyObject *l2_line = PyDict_GetItemWithError(l2e, t2o);
                if (l2_line == NULL && PyErr_Occurred()) {
                    Py_DECREF(t2o);
                    Py_DECREF(blocko);
                    goto fail;
                }
                double data_ready = 0.0;
                int fail_inner = 0;
                if (l2_line != NULL) {
                    Py_INCREF(l2_line);
                    /* LRU promote: del + reinsert */
                    if (PyDict_DelItem(l2e, t2o) < 0 ||
                        PyDict_SetItem(l2e, t2o, l2_line) < 0 ||
                        set_attr_double(l2_line, s_last_access, arrival) < 0)
                        fail_inner = 1;
                }
                if (!fail_inner && (l2_line != NULL || e->ideal_l2)) {
                    e->l2h++;
                    data_ready = arrival + (double)e->l2_lat;
                    if (l2_line != NULL) {
                        int is_pf = attr_true(l2_line, s_prefetched);
                        if (is_pf < 0)
                            fail_inner = 1;
                        else if (is_pf) {
                            if (PyObject_SetAttr(l2_line, s_prefetched,
                                                 Py_False) < 0)
                                fail_inner = 1;
                            e->pfo++;
                            e->useful++;
                        }
                        if (!fail_inner) {
                            int err = 0;
                            double ft2 =
                                attr_double(l2_line, s_fill_time, &err);
                            if (err)
                                fail_inner = 1;
                            else if (ft2 > arrival && ft2 > data_ready)
                                data_ready = ft2;
                        }
                    }
                }
                else if (!fail_inner) {
                    /* L2 miss: MainMemory.fetch + _fill_l2, inlined */
                    e->l2m++;
                    t_ = arrival + (double)e->l2_lat;
                    st_ = t_ > e->ma_nf ? t_ : e->ma_nf;
                    e->ma_nf = st_ + 1.0;
                    e->ma_by += 1.0;
                    e->ma_qc += st_ - t_;
                    e->ma_tr += 1;
                    double start2 = st_ + 1.0;
                    if (PyList_GET_SIZE(e->mem_comp) >= e->mem_maxc) {
                        if (PyList_Sort(e->mem_comp) < 0)
                            fail_inner = 1;
                        else {
                            double first = PyFloat_AsDouble(
                                PyList_GET_ITEM(e->mem_comp, 0));
                            if (first == -1.0 && PyErr_Occurred())
                                fail_inner = 1;
                            else {
                                if (first > start2)
                                    start2 = first;
                                if (memcomp_prefix_filter(e, start2) < 0)
                                    fail_inner = 1;
                            }
                        }
                    }
                    if (!fail_inner) {
                        double ready = start2 + (double)e->mem_lat;
                        st_ = ready > e->md_nf ? ready : e->md_nf;
                        e->md_nf = st_ + (double)e->mem_beats;
                        e->md_by += (double)e->mem_beats;
                        e->md_qc += st_ - ready;
                        e->md_tr += 1;
                        data_ready = st_ + (double)e->mem_beats;
                        if (list_append_double(e->mem_comp, data_ready) < 0)
                            fail_inner = 1;
                        e->mem_acc++;
                    }
                    if (!fail_inner) {
                        PyObject *line2 = PyObject_CallFunction(
                            e->cacheline, "Ld", t2, data_ready);
                        if (line2 == NULL)
                            fail_inner = 1;
                        else {
                            if (PyDict_GET_SIZE(l2e) >= e->l2_ways) {
                                PyObject *fk = dict_first_key(l2e);
                                Py_INCREF(fk);
                                PyObject *victim = PyDict_GetItem(l2e, fk);
                                Py_XINCREF(victim);
                                if (PyDict_DelItem(l2e, fk) < 0 ||
                                    PyDict_SetItem(l2e, t2o, line2) < 0)
                                    fail_inner = 1;
                                Py_DECREF(fk);
                                if (!fail_inner && victim != NULL) {
                                    int vpf =
                                        attr_true(victim, s_prefetched);
                                    int vd = attr_true(victim, s_dirty);
                                    if (vpf < 0 || vd < 0)
                                        fail_inner = 1;
                                    else {
                                        if (vpf)
                                            e->pfev++;
                                        if (vd) {
                                            e->wb2++;
                                            st_ = data_ready > e->md_nf
                                                      ? data_ready
                                                      : e->md_nf;
                                            e->md_nf =
                                                st_ + (double)e->mem_beats;
                                            e->md_by +=
                                                (double)e->mem_beats;
                                            e->md_qc += st_ - data_ready;
                                            e->md_tr += 1;
                                        }
                                    }
                                }
                                Py_XDECREF(victim);
                            }
                            else if (PyDict_SetItem(l2e, t2o, line2) < 0)
                                fail_inner = 1;
                            Py_DECREF(line2);
                        }
                    }
                }
                Py_XDECREF(l2_line);
                Py_DECREF(t2o);
                if (fail_inner) {
                    Py_DECREF(blocko);
                    goto fail;
                }
                /* data return over the L1/L2 data channel */
                st_ = data_ready > e->d_nf ? data_ready : e->d_nf;
                e->d_nf = st_ + (double)e->l1_beats;
                e->d_by += (double)e->l1_beats;
                e->d_qc += st_ - data_ready;
                e->d_tr += 1;
                comp = st_ + (double)e->l1_beats;
                /* MSHR register (reap at now, then insert) */
                while (e->heap_len && e->heap[0].t <= v) {
                    HeapItem it;
                    heap_popmin(e, &it);
                    if (mshr_del_if_match(e, it.b, it.t) < 0) {
                        Py_DECREF(blocko);
                        goto fail;
                    }
                }
                PyObject *co = PyFloat_FromDouble(comp);
                if (co == NULL ||
                    PyDict_SetItem(e->msh_inf, blocko, co) < 0) {
                    Py_XDECREF(co);
                    Py_DECREF(blocko);
                    goto fail;
                }
                Py_DECREF(co);
                if (heap_push(e, comp, block) < 0) {
                    Py_DECREF(blocko);
                    goto fail;
                }
                Py_ssize_t sz = PyDict_GET_SIZE(e->msh_inf);
                if (sz > e->msh_pk)
                    e->msh_pk = sz;
                /* L1 fill on the planes (+ victim writeback) */
                if (fill_l1_c(e, s, tag, comp, !load, 0) < 0) {
                    Py_DECREF(blocko);
                    goto fail;
                }
                /* ---- prefetcher training ---- */
                if (e->trainer != TR_ABSENT &&
                    train_miss(e, s, tag, block, i, load, v) < 0) {
                    Py_DECREF(blocko);
                    goto fail;
                }
                Py_DECREF(blocko);
            }
            if (!load)
                comp = v + 1.0;
        }
        e->sc++;
        e->comp_arr[i] = comp;
        double m = lc + e->inv_cr;
        if (comp > m)
            m = comp;
        lc = m;
        e->cmt_arr[i] = m;
    }

    clock_gettime(CLOCK_MONOTONIC, &ts1);
    e->epi_ns += (long long)(ts1.tv_sec - ts0.tv_sec) * 1000000000LL +
                 (ts1.tv_nsec - ts0.tv_nsec);
    return Py_BuildValue("dddnL", li, lc, nd, P, last_fb);
fail:
    return NULL;
}

/* ================= methods ================= */

static PyObject *
Engine_sync_out(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    if (sync_out_internal(e) < 0 || tables_out(e) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_sync_in(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    if (sync_in_internal(e) < 0 || tables_in(e) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_set_callbacks(EngineObject *e, PyObject *args)
{
    PyObject *ifetch_cb, *observe_cb, *evict_cb;
    if (!PyArg_ParseTuple(args, "OOO", &ifetch_cb, &observe_cb, &evict_cb))
        return NULL;
    Py_INCREF(ifetch_cb);
    Py_XSETREF(e->ifetch_cb, ifetch_cb);
    Py_INCREF(observe_cb);
    Py_XSETREF(e->observe_cb, observe_cb);
    Py_INCREF(evict_cb);
    Py_XSETREF(e->evict_cb, evict_cb);
    Py_RETURN_NONE;
}

static PyObject *
Engine_take_stats(EngineObject *e, PyObject *Py_UNUSED(ignored))
{
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
#define PUT(name, val)                                                   \
    do {                                                                 \
        PyObject *o = PyLong_FromLongLong((long long)(val));             \
        if (o == NULL || PyDict_SetItemString(d, name, o) < 0) {         \
            Py_XDECREF(o);                                               \
            Py_DECREF(d);                                                \
            return NULL;                                                 \
        }                                                                \
        Py_DECREF(o);                                                    \
    } while (0)
    PUT("demand", e->dc);
    PUT("loads", e->ldc);
    PUT("stores", e->stc);
    PUT("hits", e->hc);
    PUT("ifetch", e->ifc);
    PUT("l1m", e->l1m);
    PUT("l2a", e->l2a);
    PUT("l2h", e->l2h);
    PUT("l2m", e->l2m);
    PUT("pfo", e->pfo);
    PUT("useful", e->useful);
    PUT("mgd", e->mgd);
    PUT("wb1", e->wb1);
    PUT("wb2", e->wb2);
    PUT("pfr", e->pfr);
    PUT("pfi", e->pfi);
    PUT("pfred", e->pfred);
    PUT("pfdq", e->pfdq);
    PUT("pfdb", e->pfdb);
    PUT("pfev", e->pfev);
    PUT("pfl", e->pfl);
    PUT("pfu", e->pfu);
    PUT("pfp", e->pfp);
    PUT("tl", e->tl);
    PUT("tp", e->tp);
    PUT("pu", e->pu);
    PUT("pl", e->pl);
    PUT("ph", e->ph);
    PUT("dead", e->dead);
    PUT("pa", e->pa);
    PUT("pd", e->pd);
    PUT("dq", e->dq);
    PUT("dv", e->dv);
    PUT("de", e->de);
    PUT("l1p", e->l1p);
    PUT("l1ph", e->l1ph);
    PUT("cb_ifetch", e->cb_ifetch);
    PUT("cb_l1i", e->cb_l1i);
    PUT("cb_observe", e->cb_observe);
    PUT("cb_evict", e->cb_evict);
    PUT("sc", e->sc);
    PUT("mshr_full_stalls", e->msh_fs);
    PUT("sp", e->sp);
    PUT("dobs", e->dobs);
    PUT("dhits", e->dhits);
    PUT("sup", e->sup);
    PUT("epi_ns", e->epi_ns);
#undef PUT
    e->dc = e->ldc = e->stc = e->hc = e->ifc = 0;
    e->l1m = e->l2a = e->l2h = e->l2m = 0;
    e->pfo = e->useful = e->mgd = e->wb1 = e->wb2 = 0;
    e->pfr = e->pfi = e->pfred = e->pfdq = e->pfdb = e->pfev = 0;
    e->pfl = e->pfu = e->pfp = e->tl = e->tp = 0;
    e->pu = e->pl = e->ph = 0;
    e->dead = e->pa = e->pd = e->dq = e->dv = e->de = e->l1p = e->l1ph = 0;
    e->sp = e->dobs = e->dhits = e->sup = 0;
    e->cb_ifetch = e->cb_l1i = e->cb_observe = e->cb_evict = 0;
    e->sc = 0;
    return d;
}

/* ================= construction / teardown ================= */

static int
get_buffer(PyObject *spec, const char *key, Py_buffer *view, int writable,
           Py_ssize_t itemsize, void *ptr_out, int *have)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL || obj == Py_None) {
        if (have != NULL) {
            *have = 0;
            *(void **)ptr_out = NULL;
            return 0;
        }
        PyErr_Format(PyExc_KeyError, "spec missing array %s", key);
        return -1;
    }
    int flags = writable ? PyBUF_CONTIG : PyBUF_CONTIG_RO;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->itemsize != itemsize) {
        PyErr_Format(PyExc_TypeError, "spec array %s: itemsize %zd != %zd",
                     key, view->itemsize, itemsize);
        PyBuffer_Release(view);
        view->obj = NULL;
        return -1;
    }
    *(void **)ptr_out = view->buf;
    if (have != NULL)
        *have = 1;
    return 0;
}

static int
get_obj(PyObject *spec, const char *key, PyObject **out, int optional)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL || (optional && obj == Py_None)) {
        if (!optional && obj == NULL) {
            PyErr_Format(PyExc_KeyError, "spec missing object %s", key);
            return -1;
        }
        *out = NULL;
        return 0;
    }
    Py_INCREF(obj);
    *out = obj;
    return 0;
}

static int
get_ll(PyObject *spec, const char *key, long long *out)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "spec missing int %s", key);
        return -1;
    }
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static int
get_f(PyObject *spec, const char *key, double *out)
{
    PyObject *obj = PyDict_GetItemString(spec, key);
    if (obj == NULL) {
        PyErr_Format(PyExc_KeyError, "spec missing float %s", key);
        return -1;
    }
    double v = PyFloat_AsDouble(obj);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

/* the trainer's private state, from the spec entries its name needs */
static int
trainer_init(EngineObject *e, PyObject *spec)
{
    long long ways, vw;
    switch (e->trainer) {
    case TR_NEXTLINE:
        return get_ll(spec, "degree", &e->degree);
    case TR_STRIDE:
        if (get_ll(spec, "degree", &e->degree) < 0 ||
            get_ll(spec, "ways", &ways) < 0 ||
            get_obj(spec, "table", &e->rpt.sets, 0) < 0 ||
            get_obj(spec, "entry", &e->rpt.factory, 0) < 0 ||
            !PyList_Check(e->rpt.sets) ||
            st_alloc(&e->rpt, e->rpt.sets, ways, ST_RPT, 3) < 0)
            break;
        return 0;
    case TR_MARKOV:
        if (get_ll(spec, "targets", &vw) < 0 ||
            get_ll(spec, "ways", &ways) < 0 ||
            get_obj(spec, "table", &e->mk.sets, 0) < 0 ||
            get_obj(spec, "entry", &e->mk.factory, 0) < 0 ||
            !PyList_Check(e->mk.sets) || vw <= 0 ||
            st_alloc(&e->mk, e->mk.sets, ways, ST_MARKOV, 1 + vw) < 0)
            break;
        return 0;
    case TR_STREAM: {
        long long buffers;
        if (get_ll(spec, "buffers", &buffers) < 0 ||
            get_ll(spec, "depth", &e->sb_depth) < 0 ||
            get_obj(spec, "entry", &e->sb_factory, 0) < 0 || buffers <= 0)
            break;
        e->sb_n = buffers;
        e->sb_next = PyMem_Calloc(buffers, sizeof(long long));
        e->sb_use = PyMem_Calloc(buffers, sizeof(double));
        e->sb_valid = PyMem_Calloc(buffers, 1);
        if (e->sb_next == NULL || e->sb_use == NULL || e->sb_valid == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        return 0;
    }
    case TR_TCP_STRIDE: {
        if (get_obj(spec, "detector", &e->det_obj, 0) < 0 ||
            get_ll(spec, "depth", &e->det_depth) < 0)
            return -1;
        Py_ssize_t n_sets = e->l1pf_b.len;
        e->det_n = n_sets;
        e->det_last = PyMem_Calloc(n_sets, sizeof(long long));
        e->det_stride = PyMem_Calloc(n_sets, sizeof(long long));
        e->det_conf = PyMem_Calloc(n_sets, sizeof(long long));
        if (e->det_last == NULL || e->det_stride == NULL ||
            e->det_conf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        return 0;
    }
    case TR_TCP_CONF:
        if (get_ll(spec, "threshold", &e->conf_thr) < 0 ||
            get_ll(spec, "maximum", &e->conf_max) < 0)
            return -1;
        return 0;
    case TR_TCP_LOOK: {
        if (get_ll(spec, "degree", &e->degree) < 0)
            return -1;
        e->spec_len = PyTuple_GET_SIZE(PyList_GET_ITEM(e->tht_hist, 0));
        e->spec = PyMem_Calloc(e->spec_len, sizeof(long long));
        e->seen = PyMem_Calloc(e->degree + 1, sizeof(long long));
        if (e->spec == NULL || e->seen == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        return 0;
    }
    case TR_DBCP: {
        long long shift, sig_mask;
        if (get_ll(spec, "ways", &ways) < 0 ||
            get_ll(spec, "dbcp_shift", &shift) < 0 ||
            get_ll(spec, "sig_mask", &sig_mask) < 0 ||
            get_obj(spec, "table", &e->dt.sets, 0) < 0 ||
            !PyList_Check(e->dt.sets) ||
            st_alloc(&e->dt, e->dt.sets, ways, ST_INT, 1) < 0)
            break;
        e->dt_shift = (int)shift;
        e->sig_mask = (unsigned long long)sig_mask;
        if (lm_alloc(&e->live, 2048) < 0)
            return -1;
        lm_clear(&e->live);
        return 0;
    }
    case TR_HYBRID: {
        if (get_ll(spec, "ways", &ways) < 0 ||
            get_obj(spec, "table", &e->dh.sets, 0) < 0 ||
            get_f(spec, "ttl", &e->ttl) < 0 ||
            get_f(spec, "dead_factor", &e->dead_factor) < 0 ||
            get_f(spec, "default_idle", &e->default_idle) < 0 ||
            get_f(spec, "min_idle", &e->min_idle) < 0 ||
            !PyList_Check(e->dh.sets) ||
            st_alloc(&e->dh, e->dh.sets, ways, ST_FLOAT, 1) < 0)
            break;
        Py_ssize_t n_sets = e->l1pf_b.len;
        e->pl_block = PyMem_Calloc(n_sets, sizeof(long long));
        e->pl_ready = PyMem_Calloc(n_sets, sizeof(double));
        e->pl_seq = PyMem_Calloc(n_sets, sizeof(unsigned long long));
        if (e->pl_block == NULL || e->pl_ready == NULL || e->pl_seq == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        e->pl_next_seq = 1;
        return 0;
    }
    default:
        return 0;
    }
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "%s trainer: table state",
                     TRAINER_NAMES[e->trainer]);
    return -1;
}

static int
Engine_init(EngineObject *e, PyObject *args, PyObject *kwds)
{
    PyObject *spec;
    static char *kwlist[] = {"spec", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", kwlist, &PyDict_Type,
                                     &spec))
        return -1;
    long long tmp;
#define GETBUF(key, view, writable, isz, field, have)                    \
    if (get_buffer(spec, key, &e->view, writable, isz, &e->field, have) < 0) \
        return -1
    GETBUF("idx", idx_b, 0, 8, idx, NULL);
    GETBUF("instr", instr_b, 0, 8, instr, NULL);
    GETBUF("blocks", blocks_b, 0, 8, blocks, NULL);
    GETBUF("tags", tags_b, 0, 8, tags, NULL);
    GETBUF("deps", deps_b, 0, 8, deps, NULL);
    GETBUF("load", load_b, 0, 1, load, NULL);
    GETBUF("incs", incs_b, 0, 8, incs, NULL);
    GETBUF("l2i", l2i_b, 0, 8, l2i, NULL);
    GETBUF("l2t", l2t_b, 0, 8, l2t, NULL);
    GETBUF("fb", fb_b, 0, 8, fb, &e->have_fb);
    GETBUF("pcs", pcs_b, 0, 8, pcs, NULL);
    GETBUF("completions", comp_b, 1, 8, comp_arr, NULL);
    GETBUF("commits", cmt_b, 1, 8, cmt_arr, NULL);
    GETBUF("l1_tag", l1tag_b, 1, 8, l1tag, NULL);
    GETBUF("l1_la", l1la_b, 1, 8, l1la, NULL);
    GETBUF("l1_ft", l1ft_b, 1, 8, l1ft, NULL);
    GETBUF("l1_dirty", l1dirty_b, 1, 1, l1dirty, NULL);
    GETBUF("l1_pf", l1pf_b, 1, 1, l1pf, NULL);
    GETBUF("tht_sums", thtsum_b, 1, 8, thtsum, &e->have_thtsum);
#undef GETBUF
    e->n = e->comp_b.len / (Py_ssize_t)sizeof(double);
    Py_buffer *planes[] = {
        &e->idx_b, &e->instr_b, &e->blocks_b, &e->tags_b, &e->deps_b,
        &e->incs_b, &e->l2i_b, &e->l2t_b, &e->pcs_b, &e->cmt_b,
    };
    for (size_t q = 0; q < sizeof(planes) / sizeof(planes[0]); q++) {
        if (planes[q]->len != e->n * 8) {
            PyErr_SetString(PyExc_ValueError, "trace plane length mismatch");
            return -1;
        }
    }
    if (e->load_b.len != e->n || (e->have_fb && e->fb_b.len != e->n * 8)) {
        PyErr_SetString(PyExc_ValueError, "trace plane length mismatch");
        return -1;
    }

    if (get_obj(spec, "msh_inf", &e->msh_inf, 0) < 0 ||
        get_obj(spec, "mem_comp", &e->mem_comp, 0) < 0 ||
        get_obj(spec, "pf_inflight", &e->pf_inflight, 0) < 0 ||
        get_obj(spec, "l2_entries", &e->l2_entries, 0) < 0 ||
        get_obj(spec, "l2_sets", &e->l2_sets, 0) < 0 ||
        get_obj(spec, "pht_sets", &e->pht_sets, 1) < 0 ||
        get_obj(spec, "tht_hist", &e->tht_hist, 1) < 0 ||
        get_obj(spec, "resident", &e->resident, 0) < 0 ||
        get_obj(spec, "cacheline", &e->cacheline, 0) < 0 ||
        get_obj(spec, "l1i_lookup", &e->l1i_lookup, 0) < 0 ||
        get_obj(spec, "ab", &e->ab, 0) < 0 ||
        get_obj(spec, "db", &e->db, 0) < 0 ||
        get_obj(spec, "mab", &e->mab, 0) < 0 ||
        get_obj(spec, "mdb", &e->mdb, 0) < 0 ||
        get_obj(spec, "mshr", &e->mshr, 0) < 0 ||
        get_obj(spec, "memory", &e->memory, 0) < 0 ||
        get_obj(spec, "hierarchy", &e->hierarchy, 0) < 0 ||
        get_obj(spec, "pf", &e->pf_obj, 1) < 0 ||
        get_obj(spec, "pb", &e->pb, 1) < 0)
        return -1;

#define GETLL(key, field)                                                \
    do {                                                                 \
        if (get_ll(spec, key, &tmp) < 0)                                 \
            return -1;                                                   \
        e->field = tmp;                                                  \
    } while (0)
    GETLL("window", window);
    GETLL("lsq", lsq);
    GETLL("l1_lat", l1_lat);
    GETLL("l2_lat", l2_lat);
    GETLL("l1_beats", l1_beats);
    GETLL("mem_beats", mem_beats);
    GETLL("mem_lat", mem_lat);
    GETLL("mem_maxc", mem_maxc);
    GETLL("msh_entries", msh_entries);
    GETLL("l2_ways", l2_ways);
    GETLL("pf_max", pf_max);
    GETLL("pht_ways", pht_ways);
    GETLL("pht_targets", pht_targets);
    GETLL("l2_shift", l2_shift);
    GETLL("l2_imask", l2_imask);
    GETLL("l2_ibits", l2_ibits);
    GETLL("l1_ib", l1_ib);
    GETLL("l1i_mask", l1i_mask);
    GETLL("l1i_bits", l1i_bits);
    GETLL("seq_mask", seq_mask);
    GETLL("miss_mask", miss_mask);
    GETLL("n_bits", n_bits);
    GETLL("tht_ib", tht_ib);
    GETLL("pf_delay", pf_delay);
    GETLL("lru_pf", lru_pf);
    GETLL("ideal_l2", ideal_l2);
    GETLL("model_icache", model_icache);
    GETLL("needs_evict", needs_evict);
    GETLL("into_l1", into_l1);
    GETLL("l1_set_mask", l1_set_mask);
#undef GETLL
    if (get_f(spec, "ls_s", &e->ls_s) < 0 ||
        get_f(spec, "inv_cr", &e->inv_cr) < 0 ||
        get_f(spec, "pf_busy_thr", &e->pf_busy_thr) < 0)
        return -1;
    if (e->l1pf_b.len != e->l1tag_b.len / (Py_ssize_t)sizeof(long long) ||
        e->l1_set_mask != e->l1pf_b.len - 1) {
        PyErr_SetString(PyExc_ValueError, "l1_pf plane size mismatch");
        return -1;
    }
    if (e->model_icache && !e->have_fb) {
        PyErr_SetString(PyExc_ValueError, "model_icache without fb plane");
        return -1;
    }

    PyObject *name = PyDict_GetItemString(spec, "trainer");
    const char *tname = name != NULL ? PyUnicode_AsUTF8(name) : NULL;
    if (tname == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError, "spec missing trainer");
        return -1;
    }
    e->trainer = -1;
    for (int q = 0; TRAINER_NAMES[q] != NULL; q++) {
        if (strcmp(tname, TRAINER_NAMES[q]) == 0)
            e->trainer = q;
    }
    if (e->trainer < 0) {
        PyErr_Format(PyExc_ValueError, "unknown trainer %s", tname);
        return -1;
    }
    int tcp = e->trainer == TR_TCP || e->trainer == TR_TCP_STRIDE ||
              e->trainer == TR_TCP_CONF || e->trainer == TR_TCP_LOOK ||
              e->trainer == TR_HYBRID;
    if (e->trainer != TR_ABSENT && e->pf_obj == NULL) {
        PyErr_SetString(PyExc_ValueError, "trainer without its prefetcher");
        return -1;
    }
    if (tcp &&
        (e->pht_sets == NULL || e->tht_hist == NULL || !e->have_thtsum ||
         !PyList_Check(e->tht_hist) ||
         PyList_GET_SIZE(e->tht_hist) != e->l1pf_b.len ||
         e->thtsum_b.len != e->l1pf_b.len * 8)) {
        PyErr_SetString(PyExc_ValueError,
                        "TCP trainer without one THT row per L1 set");
        return -1;
    }
    return trainer_init(e, spec);
}

static void
Engine_dealloc(EngineObject *e)
{
    Py_buffer *views[] = {
        &e->idx_b, &e->instr_b, &e->blocks_b, &e->tags_b, &e->deps_b,
        &e->load_b, &e->incs_b, &e->l2i_b, &e->l2t_b, &e->fb_b,
        &e->comp_b, &e->cmt_b, &e->l1tag_b, &e->l1la_b, &e->l1ft_b,
        &e->l1dirty_b, &e->thtsum_b, &e->l1pf_b, &e->pcs_b,
    };
    for (size_t q = 0; q < sizeof(views) / sizeof(views[0]); q++) {
        if (views[q]->obj != NULL)
            PyBuffer_Release(views[q]);
    }
    Py_XDECREF(e->msh_inf);
    Py_XDECREF(e->mem_comp);
    Py_XDECREF(e->pf_inflight);
    Py_XDECREF(e->l2_entries);
    Py_XDECREF(e->l2_sets);
    Py_XDECREF(e->pht_sets);
    Py_XDECREF(e->tht_hist);
    Py_XDECREF(e->resident);
    Py_XDECREF(e->cacheline);
    Py_XDECREF(e->l1i_lookup);
    Py_XDECREF(e->ab);
    Py_XDECREF(e->db);
    Py_XDECREF(e->mab);
    Py_XDECREF(e->mdb);
    Py_XDECREF(e->mshr);
    Py_XDECREF(e->memory);
    Py_XDECREF(e->hierarchy);
    Py_XDECREF(e->ifetch_cb);
    Py_XDECREF(e->observe_cb);
    Py_XDECREF(e->evict_cb);
    Py_XDECREF(e->pf_obj);
    Py_XDECREF(e->pb);
    Py_XDECREF(e->sb_factory);
    Py_XDECREF(e->det_obj);
    Py_XDECREF(e->conf);
    st_free(&e->rpt);
    st_free(&e->mk);
    st_free(&e->dt);
    st_free(&e->dh);
    lm_free(&e->live);
    PyMem_Free(e->pl_block);
    PyMem_Free(e->pl_ready);
    PyMem_Free(e->pl_seq);
    PyMem_Free(e->sb_next);
    PyMem_Free(e->sb_use);
    PyMem_Free(e->sb_valid);
    PyMem_Free(e->det_last);
    PyMem_Free(e->det_stride);
    PyMem_Free(e->det_conf);
    PyMem_Free(e->spec);
    PyMem_Free(e->seen);
    PyMem_Free(e->heap);
    Py_TYPE(e)->tp_free((PyObject *)e);
}

static PyMethodDef Engine_methods[] = {
    {"step", (PyCFunction)Engine_step, METH_VARARGS,
     "step(i, limit, li, lc, nd, P, last_fb) -> (li, lc, nd, P, last_fb)\n"
     "Run accesses [i, limit) of the trace."},
    {"sync_out", (PyCFunction)Engine_sync_out, METH_NOARGS,
     "Write mirrored component scalars and the flat prefetcher tables\n"
     "back to the live Python objects."},
    {"sync_in", (PyCFunction)Engine_sync_in, METH_NOARGS,
     "Reload mirrored component scalars and the flat prefetcher tables\n"
     "from the live Python objects; rebuild the MSHR heap."},
    {"set_callbacks", (PyCFunction)Engine_set_callbacks, METH_VARARGS,
     "set_callbacks(ifetch_cb, observe_cb, evict_cb)"},
    {"take_stats", (PyCFunction)Engine_take_stats, METH_NOARGS,
     "Drain accumulated stat deltas as a dict (and reset them)."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.backend.native._native.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Compiled core loop: steps a trace through the simulator state.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_methods = Engine_methods,
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Compiled core loop for the native simulation backend.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__native(void)
{
#define INTERN(var, text)                                                \
    do {                                                                 \
        var = PyUnicode_InternFromString(text);                          \
        if (var == NULL)                                                 \
            return NULL;                                                 \
    } while (0)
    INTERN(s_entries, "_entries");
    INTERN(s_last_access, "last_access");
    INTERN(s_prefetched, "prefetched");
    INTERN(s_fill_time, "fill_time");
    INTERN(s_dirty, "dirty");
    INTERN(s_next_free, "next_free");
    INTERN(s_busy_cycles, "busy_cycles");
    INTERN(s_queued_cycles, "queued_cycles");
    INTERN(s_transfers, "transfers");
    INTERN(s_earliest, "_earliest");
    INTERN(s_full_stalls, "full_stalls");
    INTERN(s_merges, "merges");
    INTERN(s_peak_occupancy, "peak_occupancy");
    INTERN(s_completions_attr, "_completions");
    INTERN(s_accesses, "accesses");
    INTERN(s_pf_inflight_attr, "_pf_inflight");
    INTERN(s_pending_l1, "_pending_l1");
    INTERN(s_live_signatures, "_live_signatures");
    INTERN(s_pending_death, "_pending_death_signature");
    INTERN(s_last_block, "last_block");
    INTERN(s_stride, "stride");
    INTERN(s_state, "state");
    INTERN(s_successors, "successors");
    INTERN(s_streams, "_streams");
    INTERN(s_next_block, "next_block");
    INTERN(s_last_use, "last_use");
    INTERN(s_det_state, "_state");
    INTERN(s_previous_block, "_previous_block");
    INTERN(s_confidence, "_confidence");
#undef INTERN
    if (PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "ABI_VERSION", 3) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
