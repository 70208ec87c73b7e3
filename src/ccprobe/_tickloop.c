/* The tick loop of `ccprobe.netsim.run_episodes`, the six rule-based
 * congestion controllers of `ccprobe.cc`, the learned controller of
 * `ccprobe.learned`, the closed-loop adversary of `ccprobe.adversary`, and
 * the per-interval projection of `ccprobe.tracegen.gen_random_trace` and the
 * line writer of `ccprobe.netsim.export_mahimahi`.
 *
 * `tl_step` advances one episode tick by tick. Every tick runs the same five
 * steps: ACK arrivals, loss reactions, cwnd/pacing-gated injection, delivery
 * and the interval boundary. Step 4's link credit takes no division while
 * the capacity per tick is below 2^52 bytes: the credit stays in [0, pkt),
 * so each tick's delivery opportunities are floor(c / pkt) plus 0, 1 or 2,
 * found by two comparisons against exact thresholds (`link_tick` has the
 * proof); otherwise `tl_floordiv` divides. The
 * episode's controller is one `tl_cc`, which `tl_step` updates inline
 * (`cc_on_ack`, `cc_on_loss`, `cc_on_interval`) and reads cwnd and pacing
 * from. At each interval boundary the loop writes the interval's `tl_obs`
 * row, steps the controller, on a trace (`caps`) sets the next interval's
 * capacity itself, and steps the episode's adversary (`adv`), if any. It
 * returns TL_INTERVAL there only when the driver has a policy to run
 * (`hooked`): an adversary's with a policy, or a TL_HIDDEN controller's, a
 * learned one with a hidden layer, which numpy runs. A policy reads its
 * feature row from `x` and leaves its output in `*out`, pointers into the
 * driver's buffers. A TL_HIDDEN controller ignores ACKs and losses, and
 * takes its `cc_learned_step` on `*out` at the start of every `tl_step`
 * call after the first. `tl_step` always starts at an interval's first
 * tick. Any other episode, a TL_PINNED one and one whose adversary has no
 * policy too, runs to TL_DONE, or an error, in one call. `tl_step_rows`
 * steps a lock-step slice of hooked episodes to a boundary.
 *
 * The adversary block (`tl_adv`) is a min-RTT intercept or an online
 * capacity driver. At each boundary but the last, one with a policy writes
 * the policy's feature row into `x` (the controller features plus, on the
 * env surface, capacity / bw_max), and the driver leaves the policy's
 * output before its tanh head in `*out`. One without a policy draws instead,
 * from its own stream (`rng`, the adversary's `netsim.Rng`), uniform in its
 * capacity range or, under random noise, its min-RTT scale range; a
 * feature intercept that neither runs a policy nor draws keeps the scale
 * 1.0. The next interval's first tick, before it plans the link, turns the
 * output or draw into the interval's min-RTT scale or capacity: the action
 * a_max * tanh(out) and its clamp, then the scale 1 + a * x_fraction, or
 * the capacity, drawn or proposed, projected onto the smoothness budget
 * over the last window_k capacities. When `scored`, every boundary also adds
 * the interval's adversarial reward (naive or delay-constrained) to `total`
 * and counts the constraint in `ok`; an observation outside the reward's
 * domain ends the episode with a TL_DOMAIN_* code.
 *
 * An episode ends in `tl_obs_sums`, which sums its `tl_obs` rows into what
 * its means are taken from: queuing delay, capacity, throughput and,
 * for a learned controller's return, the controller reward
 * (`tl_controller_reward`, the one definition of that reward).
 *
 * `tl_rng` is every random stream of the code (`netsim.Rng`): numpy's
 * PCG64 bit generator, the 128-bit LCG of O'Neill's PCG with the XSL-RR
 * output, and numpy's buffered 32-bit draws (the high half of a 64-bit
 * output waits in `uinteger` for the next one), seeded as numpy's
 * `SeedSequence` seeds it from an integer's 32-bit words. Its draws go
 * through the C distributions numpy ships in its static libnpyrandom, linked
 * at build time: `random_uniform`, the ziggurat of `random_standard_normal`
 * with its tables, and Lemire's bounded integers. So `tl_rng_uniform`,
 * `tl_rng_normal_fill` and `tl_rng_integers_fill` are, draw for draw,
 * `Generator.uniform`, `.standard_normal` and `.integers` of
 * `default_rng(seed)` for the numpy built against, without its `Generator`.
 *
 * The arithmetic is Python's, operation for operation, in IEEE doubles; the
 * build turns off FMA contraction and never uses fast-math, so the one
 * fused multiply-add is the explicit `fma` that repeats numpy's dot
 * product. `tanh` and `pow` are libm's, which `math.tanh` and `**` call.
 * `py_floordiv` and `py_round` are CPython's float `//` and
 * `round()` (`tl_floordiv` is `//` by a packet size, faster on the usual
 * range, and `link_tick` the link credit's `//` without a division),
 * `tl_int_truediv` and `py_mul_float` are `/` and `float(a * b)` of
 * ints, and `min(a, b)` / `max(a, b)` keep Python's argument order
 * (`b < a ? b : a`). Sums of a list run left to right from 0.0, as
 * Python 3.11's `sum` does. Every buffer write is bounds-checked:
 * the queue, ACK and RTT buffers grow on demand, and a failed allocation
 * ends the episode with TL_NOMEM; the driver's observation buffer has one
 * row per interval of `n_ticks`. The RTT histogram grows with the largest
 * RTT seen, never with the episode length.
 *
 * The declarations between the cdef markers are also handed to cffi.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

/* cdef-begin */
#define TL_DONE 0
#define TL_INTERVAL 1
#define TL_NOMEM -1
#define TL_BAD_CWND -2
#define TL_BAD_PACING -3
#define TL_BAD_CAPACITY -4
/* an observation outside the adversarial reward's domain */
#define TL_DOMAIN_RTT -5
#define TL_DOMAIN_MIN_RTT -6
#define TL_DOMAIN_UTILIZATION -7

/* controller kinds, phases and LP indications */
#define TL_RENO 0
#define TL_CUBIC 1
#define TL_VEGAS 2
#define TL_ILLINOIS 3
#define TL_LP 4
#define TL_BBRLITE 5
#define TL_HIDDEN 6
#define TL_LINEAR 7
#define TL_PINNED 8
#define TL_SLOW_START 0
#define TL_CONGESTION_AVOIDANCE 1
#define TL_FAST_RECOVERY 2
#define TL_LP_INFERENCE 3
#define TL_LP_NONE 0
#define TL_LP_FIRST 1
#define TL_LP_SECOND 2
/* adversary surfaces */
#define TL_ADV_ENV 0
#define TL_ADV_FEATURE 1

typedef struct {
    int64_t send_tick, count;
} tl_run;

/* one ACK batch, the argument of `cc_on_ack` */
typedef struct {
    double now_ms, rtt_ms, owd_ms;
    int64_t acked_packets, acked_bytes;
    double min_rtt_ms, min_owd_ms, srtt_ms, min_rtt_scale;
} tl_ackinfo;

/* one interval's observation: the fields of `netsim.Observation` after
 * interval_idx, in order */
typedef struct {
    double now_ms, capacity_mbps, throughput_mbps, loss_mbps, loss_rate;
    double srtt_ms, min_rtt_ms, visible_min_rtt_ms, utilization, cwnd;
} tl_obs;

/* the controller reward's parameters, the fields of `learned.RewardParams` */
typedef struct {
    double lam, gamma, b_max;
} tl_reward;

/* an episode's sums over its rows, each left to right from 0.0 */
typedef struct {
    double queuing_delay_ms, capacity_mbps, throughput_mbps, reward;
} tl_sums;

/* a loss-based window: packets, fractional */
typedef struct {
    double cwnd, ssthresh;
    int phase;
} tl_window;

/* TCP-LP's one-way-delay early-congestion filter. sowd is an EWMA of owd
 * (undefined until has_sowd); owd_min / owd_max are running extremes. */
typedef struct {
    double threshold_fraction, ewma_gain, min_range_ms;
    double owd_ms, sowd_ms, owd_min_ms, owd_max_ms, inference_until_ms;
    int has_sowd, in_inference;
} tl_lp_filter;

typedef struct {
    double t_ms, value;
} tl_sample;

/* a C-owned ring of samples, released by tl_cc_release */
typedef struct {
    tl_sample *buf;
    int64_t head, len, cap;
} tl_deque;

/* A controller's constants and state; `kind` says which fields it uses.
 * The pacing rate is None in Python while `paced` is 0. */
typedef struct {
    int kind;
    tl_window w;
    int paced;
    double pacing_bps;
    /* cubic: c, beta; vegas: alpha, beta */
    double c, alpha, beta;
    double w_max, epoch_start_ms;   /* epoch_start_ms is None until has_epoch */
    int has_epoch;
    /* cubic's K, computed for w_max == k_w_max (NaN before the first) */
    double k, k_w_max;
    /* vegas and illinois */
    double base_rtt_ms, next_adjust_ms;
    double alpha_min, alpha_max, beta_min, beta_max;
    double max_rtt_ms, rtt_sum, avg_delay_ms, next_window_ms;
    int64_t rtt_n;
    /* lp: the filter, the inner Reno window and the indications by kind */
    tl_lp_filter filter;
    tl_window reno;
    double grace_until_ms;
    int64_t indications, first_indications, second_indications;
    /* bbrlite: monotone deques of (t_ms, bps) and (t_ms, rtt_ms) samples */
    double bw_window_rtts, rtt_window_ms, packet_size;
    double next_gain_advance_ms, min_rtt_scale, acc_start_ms;
    int64_t acc_bytes;
    int gain_index;
    tl_deque bw, rtt;
    /* the learned controller: a linear policy's weights for the five
     * features, then its bias; the action bound, feature and cwnd scales,
     * and the last action */
    double params[6];
    double a_max, b_max, cwnd_max, prev_action;
    /* TL_HIDDEN: its feature row and policy output, as in `tl_adv` */
    double *x;
    const double *out;
} tl_cc;

/* A PCG64 stream, numpy's `PCG64` bit generator: the 128-bit LCG state and
 * increment, each as its high and low words, and the high half of a 64-bit
 * output that a 32-bit draw left for the next one (when has_uint32) */
typedef struct {
    uint64_t state_hi, state_lo, inc_hi, inc_lo;
    int has_uint32;
    uint32_t uinteger;
} tl_rng;

/* One episode's adversary, `adversary.FeatureIntercept` (TL_ADV_FEATURE) or
 * `adversary.EnvBandwidthDriver` (TL_ADV_ENV), and the reward
 * `adversary.adversarial_episodes` scores it by. */
typedef struct {
    int surface, has_policy;
    /* the policy's feature row at the last boundary and its output before
     * the tanh head; the driver's */
    double *x;
    const double *out;
    /* without a policy, the next value: when `draws`, a draw from the
     * adversary's own stream, uniform in [low, low + span); else 1.0 */
    int draws;
    tl_rng *rng;
    double low, span;
    double a_max, b_max, prev_action;
    /* this interval's capacity (env) or min-RTT scale (feature) */
    double value;
    /* feature: the bound on the scale */
    double x_fraction;
    /* env: the smoothness budget, and the last min(n, window_k) of the n
     * capacities so far, oldest first, in `recent` (window_k doubles) */
    double delta, bw_min, bw_max;
    int64_t window_k, n_recent;
    double *recent;
    /* the reward, scored when `scored`: naive or delay-constrained, tau,
     * alpha, `RewardParams` and the windows, and the last window_h queuing
     * delays, a ring of `delays` (window_h doubles) holding n_delays in all */
    int scored, naive;
    double tau_ms, alpha;
    tl_reward reward;
    int64_t window_h, delay_k, n_delays;
    double *delays;
    /* the sum of rewards, and the intervals meeting the constraint */
    double total;
    int64_t ok;
} tl_adv;

typedef struct {
    int64_t send_tick, count, ack_tick;
} tl_ack;

typedef struct {
    /* fixed for the episode */
    int64_t pkt, ack_delay, interval_ticks, n_ticks, queue_cap, burst_cap;
    double tick_ms, owd_ms, base_rtt_ms;
    /* the controller run inline */
    tl_cc *cc;
    /* the trace's capacities in Mbps, cycled, or NULL when the driver sets
     * `capacity` at each TL_INTERVAL */
    const double *caps;
    int64_t n_caps;
    /* nonzero when the driver runs a policy at every interval boundary */
    int hooked;
    /* the adversary, or NULL */
    tl_adv *adv;
    /* this interval's capacity (Mbps) and the min-RTT scale; the adversary
     * sets `scale`, or `capacity` when `caps` is NULL, at each interval
     * boundary */
    double capacity, scale;
    /* one observation per interval, n_ticks / interval_ticks of them;
     * owned by the driver */
    tl_obs *obs;
    /* progress: the next tick */
    int64_t tick;
    /* totals, loss reactions by kind and this interval's counts */
    int64_t sent, delivered, dropped, acked, resolved_drops, qlen;
    int64_t triple_dups, timeouts;
    int64_t iv_sent, iv_delivered, iv_dropped;
    /* RTT estimates (ms); srtt is undefined until has_srtt */
    int has_srtt;
    double srtt, min_rtt, min_owd;
    /* loss-event bookkeeping, pacing and link credit */
    int drop_pending;
    int64_t acks_after_drop, reaction_blocked_until, last_ack_tick;
    double byte_credit, pacing_credit;
    /* FIFO of queued runs, FIFO of delivered runs awaiting their ACK, and
     * the histogram of ACK RTTs in ticks; owned by C, freed by tl_free.
     * Every packet injected in one tick shares its send tick and travels
     * in one run, so a tick's work is per run, never per packet. */
    tl_run *queue;
    int64_t q_head, q_len, q_cap;
    tl_ack *acks;
    int64_t a_head, a_len, a_cap;
    int64_t *hist;
    int64_t hist_len;
} tl_state;

extern const double tl_gain_cycle[8];

int tl_step(tl_state *s);
int tl_step_rows(tl_state *const *rows, int64_t k, int want, int64_t *failed);
void tl_free(tl_state *s);

void *tl_cc_alloc(size_t size);
void tl_cc_release(void *p);
void cc_init(tl_cc *c, int kind);
int cc_on_ack(tl_cc *c, const tl_ackinfo *a);
void cc_on_loss(tl_cc *c, int timeout);
void cc_on_interval(tl_cc *c, const tl_obs *o);
double cubic_k(double w_max, double c, double beta);
double cubic_window(double t_s, double k, double w_max, double c);
double vegas_diff(const tl_cc *c, double rtt_ms);
void illinois_params(const tl_cc *c, double *alpha, double *beta);
void lp_filter_init(tl_lp_filter *f, double threshold_fraction,
                    double ewma_gain, double min_range_ms);
void lp_filter_update(tl_lp_filter *f, double owd_ms);
int lp_filter_check(tl_lp_filter *f, double owd_ms, double now_ms,
                    double window_ms);
double lp_filter_threshold(const tl_lp_filter *f);
int bbr_push_bw(tl_cc *c, double t_ms, double bps);
int bbr_push_rtt(tl_cc *c, double t_ms, double rtt_ms);
double bbr_bw_estimate(const tl_cc *c);
double bbr_min_rtt_estimate(const tl_cc *c);
double tl_floordiv(double x, double pkt);
double tl_int_truediv(int64_t a, int64_t b);
double tl_action(double out, double a_max);
void tl_obs_features(const tl_obs *o, double b_max, double prev_action,
                     double *f);
void cc_learned_step(tl_cc *c, double out);
int tl_delay_factor(double srtt_ms, double min_rtt_ms, double gamma, double *d);
int tl_controller_reward(const tl_obs *o, const tl_reward *p, double *r);
int tl_obs_sums(const tl_obs *o, int64_t n, double base_rtt_ms,
                const tl_reward *reward, tl_sums *s);
double tl_project_next(const double *recent, int64_t n, double proposed,
                       double delta, int64_t k, double bw_min, double bw_max);
void tl_project_trace(double *values, int64_t n, double delta, int64_t k,
                      double bw_min, double bw_max);
int64_t tl_mahi_lines(const double *cum, int64_t n, int64_t first_ms,
                      double pkt, int64_t *done, int64_t *pos, char *buf,
                      int64_t cap);
double tl_feature_scale(double a, double x_fraction);
void tl_adv_begin(tl_adv *a, double value);
void tl_adv_observe(tl_adv *a, const tl_obs *o);
double tl_adv_act(tl_adv *a);
int tl_adv_reward(tl_adv *a, const tl_obs *o);
void tl_rng_seed(tl_rng *r, const uint32_t *entropy, int64_t n);
double tl_rng_uniform(tl_rng *r, double low, double range);
void tl_rng_uniform_fill(tl_rng *r, double low, double range, double *out,
                         int64_t n);
void tl_rng_normal_fill(tl_rng *r, double *out, int64_t n);
void tl_rng_integers_fill(tl_rng *r, uint64_t off, uint64_t range,
                          uint64_t *out, int64_t n);
/* cdef-end */

/* CPython's float floor division (floatobject.c, _float_div_mod). */
static double py_floordiv(double vx, double wx)
{
    double mod = fmod(vx, wx);
    double div = (vx - mod) / wx;
    double floordiv;
    if (mod) {
        if ((wx < 0) != (mod < 0))
            div -= 1.0;
    }
    if (div) {
        floordiv = floor(div);
        if (div - floordiv > 0.5)
            floordiv += 1.0;
    }
    else {
        floordiv = copysign(0.0, vx / wx);
    }
    return floordiv;
}

/* CPython's `x // pkt` for an integral pkt >= 1, without py_floordiv's
 * fmod where 0 <= x < 2^53. There `//` is the exact floor (x - fmod(x, pkt)
 * is a whole multiple of pkt below 2^53, so exact), and so is floor(x / pkt):
 * rounding is monotone, so x / pkt never rounds below an integer it is at
 * or above, and the gap between x and the next multiple of pkt, seen in
 * units of pkt, exceeds half a step of the doubles there, so it never
 * rounds up to that integer either. Any other x (negative, NaN, inf,
 * huge) takes py_floordiv. */
double tl_floordiv(double x, double pkt)
{
    if (x >= 0.0 && x < 0x1p53)
        return floor(x / pkt);
    return py_floordiv(x, pkt);
}

/* CPython's `a / b` for ints 0 <= a, 0 < b < 2^63: the exact quotient,
 * rounded once. Below 2^53 both convert exactly and IEEE division rounds
 * once; above, a quotient of 55 or more bits with a sticky bit for the
 * remainder rounds to a double as the exact one does. */
double tl_int_truediv(int64_t a, int64_t b)
{
    if (a < (INT64_C(1) << 53) && b < (INT64_C(1) << 53))
        return (double)a / (double)b;
    if (a == 0)
        return 0.0;
    int shift = 55 + __builtin_clzll((uint64_t)a) - __builtin_clzll((uint64_t)b);
    if (shift < 0)
        shift = 0;
    unsigned __int128 n = (unsigned __int128)a << shift;
    uint64_t q = (uint64_t)(n / (uint64_t)b);
    q |= n % (uint64_t)b != 0;
    return ldexp((double)q, -shift);
}

/* CPython's float(a * b) for ints 0 <= a, b < 2^63: the exact product,
 * rounded once. */
static double py_mul_float(int64_t a, int64_t b)
{
    return (double)((__int128)a * b);
}

/* CPython's round(x) for a float: to nearest, ties to even. */
static double py_round(double x)
{
    double r = round(x);
    if (fabs(x - r) == 0.5)
        r = 2.0 * round(x / 2.0);
    return r;
}

/* Makes room for `need` elements in a ring of `elem`-byte elements,
 * unwrapping it so it starts at index 0. Returns 0 on success. */
static int ring_reserve(void **buf, int64_t *head, int64_t len, int64_t *cap,
                        size_t elem, int64_t need)
{
    if (need <= *cap)
        return 0;
    int64_t ncap = *cap ? 2 * *cap : 64;
    if (ncap < need)
        ncap = need;
    char *nbuf = malloc((size_t)ncap * elem);
    if (!nbuf)
        return -1;
    if (len) {
        int64_t first = *cap - *head < len ? *cap - *head : len;
        memcpy(nbuf, (char *)*buf + (size_t)*head * elem, (size_t)first * elem);
        memcpy(nbuf + (size_t)first * elem, *buf, (size_t)(len - first) * elem);
    }
    free(*buf);
    *buf = nbuf;
    *head = 0;
    *cap = ncap;
    return 0;
}

static int hist_reserve(tl_state *s, int64_t need)
{
    if (need <= s->hist_len)
        return 0;
    int64_t nlen = 2 * s->hist_len > need ? 2 * s->hist_len : need;
    int64_t *nh = realloc(s->hist, (size_t)nlen * sizeof *nh);
    if (!nh)
        return -1;
    memset(nh + s->hist_len, 0, (size_t)(nlen - s->hist_len) * sizeof *nh);
    s->hist = nh;
    s->hist_len = nlen;
    return 0;
}

static int64_t ring_slot(int64_t head, int64_t i, int64_t cap)
{
    int64_t j = head + i;
    return j < cap ? j : j - cap;
}

/* Python's `srtt or base_rtt_ms`. */
static double srtt_or_base(const tl_state *s)
{
    return s->has_srtt && s->srtt != 0.0 ? s->srtt : s->base_rtt_ms;
}

/* --- rule controllers --------------------------------------------------- */

#define INIT_CWND 10.0
#define MIN_SSTHRESH 2.0

const double tl_gain_cycle[8] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

/* Python's min(a, b) and max(a, b): the first argument unless the second
 * is strictly smaller (larger) */
static double py_min(double a, double b)
{
    return b < a ? b : a;
}

static double py_max(double a, double b)
{
    return b > a ? b : a;
}

void *tl_cc_alloc(size_t size)
{
    return malloc(size);
}

void tl_cc_release(void *p)
{
    tl_cc *c = p;
    free(c->bw.buf);
    free(c->rtt.buf);
    free(c);
}

static void win_init(tl_window *w)
{
    w->cwnd = INIT_CWND;
    w->ssthresh = 1e9;
    w->phase = TL_SLOW_START;
}

void lp_filter_init(tl_lp_filter *f, double threshold_fraction,
                    double ewma_gain, double min_range_ms)
{
    memset(f, 0, sizeof *f);
    f->threshold_fraction = threshold_fraction;
    f->ewma_gain = ewma_gain;
    /* checks stay disarmed until the observed OWD range exceeds this floor,
     * otherwise sub-ms jitter trips the threshold before any queue exists */
    f->min_range_ms = min_range_ms;
    f->owd_min_ms = INFINITY;
    f->owd_max_ms = -INFINITY;
    f->inference_until_ms = -INFINITY;
}

/* Makes a zeroed struct a fresh controller of `kind`; its constants are
 * set after. */
void cc_init(tl_cc *c, int kind)
{
    c->kind = kind;
    win_init(&c->w);
    win_init(&c->reno);
    c->base_rtt_ms = INFINITY;
    c->grace_until_ms = -INFINITY;   /* lets a backoff act before re-checking */
    c->min_rtt_scale = 1.0;
    c->k_w_max = NAN;
}

static void clamp(tl_window *w)
{
    if (w->cwnd < 1.0)
        w->cwnd = 1.0;
    if (w->ssthresh < MIN_SSTHRESH)
        w->ssthresh = MIN_SSTHRESH;
}

static void timeout_reset(tl_window *w)
{
    w->ssthresh = py_max(w->cwnd / 2.0, MIN_SSTHRESH);
    w->cwnd = 1.0;
    w->phase = TL_SLOW_START;
}

/* slow start: one packet per packet ACKed, until ssthresh */
static void slow_start(tl_window *w, const tl_ackinfo *a)
{
    w->cwnd += (double)a->acked_packets;
    if (w->cwnd >= w->ssthresh)
        w->phase = TL_CONGESTION_AVOIDANCE;
}

static void reno_ack(tl_window *w, const tl_ackinfo *a)
{
    if (w->phase == TL_FAST_RECOVERY) {
        /* exit recovery on the first new ACK; resume avoidance at ssthresh */
        w->cwnd = w->ssthresh;
        w->phase = TL_CONGESTION_AVOIDANCE;
    }
    if (w->phase == TL_SLOW_START)
        slow_start(w, a);
    else
        w->cwnd += (double)a->acked_packets / w->cwnd;
    clamp(w);
}

/* Reno's and Vegas's loss reaction */
static void reno_loss(tl_window *w, int timeout)
{
    if (timeout) {
        timeout_reset(w);
    }
    else {
        w->ssthresh = py_max(w->cwnd / 2.0, MIN_SSTHRESH);
        w->cwnd = w->ssthresh;
        w->phase = TL_FAST_RECOVERY;
    }
    clamp(w);
}

/* K = cbrt(w_max(1-beta)/C), where cubic_window reaches w_max */
double cubic_k(double w_max, double c, double beta)
{
    return pow(w_max * (1.0 - beta) / c, 1.0 / 3.0);
}

/* W(t) = C(t-K)^3 + w_max, K from cubic_k; W(K) == w_max. */
double cubic_window(double t_s, double k, double w_max, double c)
{
    return c * pow(t_s - k, 3.0) + w_max;
}

static void cubic_ack(tl_cc *c, const tl_ackinfo *a)
{
    tl_window *w = &c->w;
    if (w->phase == TL_FAST_RECOVERY)
        w->phase = TL_CONGESTION_AVOIDANCE;
    if (w->phase == TL_SLOW_START) {
        slow_start(w, a);
    }
    else {
        if (!c->has_epoch) {
            c->epoch_start_ms = a->now_ms;
            c->has_epoch = 1;
            if (c->w_max < w->cwnd)
                c->w_max = w->cwnd;
        }
        /* K changes only with w_max; c and beta are constants */
        if (c->k_w_max != c->w_max) {
            c->k = cubic_k(c->w_max, c->c, c->beta);
            c->k_w_max = c->w_max;
        }
        double t = (a->now_ms - c->epoch_start_ms + a->rtt_ms) / 1000.0;
        double target = cubic_window(t, c->k, c->w_max, c->c);
        if (target > w->cwnd)
            w->cwnd += (target - w->cwnd) / w->cwnd * (double)a->acked_packets;
        else   /* gentle probing when at/above the plateau */
            w->cwnd += 0.01 * (double)a->acked_packets / w->cwnd;
    }
    clamp(w);
}

static void cubic_loss(tl_cc *c, int timeout)
{
    tl_window *w = &c->w;
    c->w_max = w->cwnd;
    c->has_epoch = 0;
    if (timeout) {
        timeout_reset(w);
    }
    else {
        w->cwnd *= c->beta;
        w->ssthresh = py_max(w->cwnd, MIN_SSTHRESH);
        w->phase = TL_FAST_RECOVERY;
    }
    clamp(w);
}

/* (expected - actual) * base_rtt, in packets */
double vegas_diff(const tl_cc *c, double rtt_ms)
{
    if (!isfinite(c->base_rtt_ms) || rtt_ms <= 0)
        return 0.0;
    double base_s = c->base_rtt_ms / 1000.0;
    double rtt_s = rtt_ms / 1000.0;
    return (c->w.cwnd / base_s - c->w.cwnd / rtt_s) * base_s;
}

static void vegas_ack(tl_cc *c, const tl_ackinfo *a)
{
    tl_window *w = &c->w;
    c->base_rtt_ms = a->min_rtt_ms;   /* the controller-visible min-RTT */
    if (w->phase == TL_FAST_RECOVERY) {
        w->cwnd = w->ssthresh;
        w->phase = TL_CONGESTION_AVOIDANCE;
    }
    double diff = vegas_diff(c, a->rtt_ms);
    if (w->phase == TL_SLOW_START) {
        w->cwnd += (double)a->acked_packets;
        if (w->cwnd >= w->ssthresh || diff > c->beta)
            w->phase = TL_CONGESTION_AVOIDANCE;
    }
    else if (a->now_ms >= c->next_adjust_ms) {
        if (diff > c->beta)
            w->cwnd -= 1.0;
        else if (diff < c->alpha)
            w->cwnd += 1.0;
        c->next_adjust_ms = a->now_ms + a->rtt_ms;
    }
    clamp(w);
}

/* Illinois's standard piecewise delay mapping for the AIMD coefficients */
void illinois_params(const tl_cc *c, double *alpha, double *beta)
{
    double dm = c->max_rtt_ms - c->base_rtt_ms;
    if (dm <= 0 || !isfinite(c->base_rtt_ms)) {
        *alpha = c->alpha_max;
        *beta = c->beta_min;
        return;
    }
    double da = c->avg_delay_ms;
    double d1 = 0.01 * dm;
    /* alpha: alpha_max below d1, then hyperbolic decay to alpha_min at dm */
    if (da <= d1) {
        *alpha = c->alpha_max;
    }
    else {
        double k1 = (dm - d1) * c->alpha_min * c->alpha_max
            / (c->alpha_max - c->alpha_min);
        double k2 = k1 / c->alpha_max - d1;
        *alpha = py_max(c->alpha_min, k1 / (k2 + da));
    }
    /* beta: linear ramp between 0.1*dm and 0.8*dm */
    double d2 = 0.1 * dm, d3 = 0.8 * dm;
    if (da <= d2)
        *beta = c->beta_min;
    else if (da >= d3)
        *beta = c->beta_max;
    else
        *beta = c->beta_min + (c->beta_max - c->beta_min) * (da - d2) / (d3 - d2);
}

static void illinois_ack(tl_cc *c, const tl_ackinfo *a)
{
    tl_window *w = &c->w;
    c->base_rtt_ms = py_min(c->base_rtt_ms, a->min_rtt_ms);
    c->max_rtt_ms = py_max(c->max_rtt_ms, a->rtt_ms);
    c->rtt_sum += a->rtt_ms * (double)a->acked_packets;
    c->rtt_n += a->acked_packets;
    if (a->now_ms >= c->next_window_ms && c->rtt_n > 0) {
        c->avg_delay_ms = c->rtt_sum / (double)c->rtt_n - c->base_rtt_ms;
        c->rtt_sum = 0.0;
        c->rtt_n = 0;
        c->next_window_ms = a->now_ms + a->rtt_ms;
    }
    if (w->phase == TL_FAST_RECOVERY)
        w->phase = TL_CONGESTION_AVOIDANCE;
    if (w->phase == TL_SLOW_START) {
        slow_start(w, a);
    }
    else {
        double alpha, beta;
        illinois_params(c, &alpha, &beta);
        w->cwnd += alpha * (double)a->acked_packets / w->cwnd;
    }
    clamp(w);
}

static void illinois_loss(tl_cc *c, int timeout)
{
    tl_window *w = &c->w;
    if (timeout) {
        timeout_reset(w);
    }
    else {
        double alpha, beta;
        illinois_params(c, &alpha, &beta);
        w->cwnd *= 1.0 - beta;
        w->ssthresh = py_max(w->cwnd, MIN_SSTHRESH);
        w->phase = TL_FAST_RECOVERY;
    }
    clamp(w);
}

/* Advances the delay filters without evaluating the indication. */
void lp_filter_update(tl_lp_filter *f, double owd_ms)
{
    f->owd_ms = owd_ms;
    f->owd_min_ms = py_min(f->owd_min_ms, owd_ms);
    f->owd_max_ms = py_max(f->owd_max_ms, owd_ms);
    if (f->has_sowd) {
        f->sowd_ms += f->ewma_gain * (owd_ms - f->sowd_ms);
    }
    else {
        f->sowd_ms = owd_ms;
        f->has_sowd = 1;
    }
}

double lp_filter_threshold(const tl_lp_filter *f)
{
    return f->owd_min_ms + f->threshold_fraction * (f->owd_max_ms - f->owd_min_ms);
}

/* The early-congestion condition fires when
 * sowd > owd_min + threshold_fraction * (owd_max - owd_min), strictly: first
 * outside an inference window (which it opens), then second inside it. */
int lp_filter_check(tl_lp_filter *f, double owd_ms, double now_ms,
                    double window_ms)
{
    lp_filter_update(f, owd_ms);
    if (f->in_inference && now_ms > f->inference_until_ms)
        f->in_inference = 0;
    if (f->owd_max_ms - f->owd_min_ms < f->min_range_ms)
        return TL_LP_NONE;
    if (f->sowd_ms > lp_filter_threshold(f)) {
        if (!f->in_inference) {
            f->in_inference = 1;
            f->inference_until_ms = now_ms + window_ms;
            return TL_LP_FIRST;
        }
        return TL_LP_SECOND;
    }
    return TL_LP_NONE;
}

/* Reno plus one-way-delay early congestion detection. The inner Reno
 * window grows and reacts to loss; `w` follows it outside an inference. */
static void lp_ack(tl_cc *c, const tl_ackinfo *a)
{
    tl_window *w = &c->w;
    tl_lp_filter *f = &c->filter;
    /* the visible min-OWD estimate replaces the filter's floor */
    f->owd_min_ms = py_min(f->owd_min_ms, a->min_owd_ms);
    int ind;
    if (a->now_ms < c->grace_until_ms) {
        lp_filter_update(f, a->owd_ms);
        ind = TL_LP_NONE;
    }
    else {
        /* grace spans 2 RTTs (in-flight packets predate the backoff for a
         * full RTT); the window is 3 RTTs so the re-check lands inside it */
        ind = lp_filter_check(f, a->owd_ms, a->now_ms, 3.0 * a->srtt_ms);
    }
    if (ind != TL_LP_NONE) {
        c->indications++;
        if (ind == TL_LP_FIRST) {
            /* halve and resume linear growth from there */
            c->first_indications++;
            w->cwnd = py_max(1.0, w->cwnd / 2.0);
            w->ssthresh = py_max(w->cwnd, MIN_SSTHRESH);
            c->reno.phase = TL_CONGESTION_AVOIDANCE;
        }
        else {
            /* persistent congestion: timeout-style reset with exponential
             * recovery up to half the operating window */
            c->second_indications++;
            w->ssthresh = py_max(w->cwnd / 2.0, MIN_SSTHRESH);
            w->cwnd = 1.0;
            f->inference_until_ms = a->now_ms + 3.0 * a->srtt_ms;
            c->reno.phase = TL_SLOW_START;
        }
        w->phase = TL_LP_INFERENCE;
        c->grace_until_ms = a->now_ms + 2.0 * a->srtt_ms;
        c->reno.cwnd = w->cwnd;
        c->reno.ssthresh = w->ssthresh;
        return;
    }
    if (w->phase == TL_LP_INFERENCE && !f->in_inference)
        w->phase = c->reno.phase;
    reno_ack(&c->reno, a);
    w->cwnd = c->reno.cwnd;
    w->ssthresh = c->reno.ssthresh;
    if (w->phase != TL_LP_INFERENCE)
        w->phase = c->reno.phase;
    clamp(w);
}

static void lp_loss(tl_cc *c, int timeout)
{
    reno_loss(&c->reno, timeout);
    c->w = c->reno;
    clamp(&c->w);
}

/* BBR-lite's windowed filters are monotone deques: bandwidth strictly
 * decreasing (front = windowed max), RTT strictly increasing (front =
 * windowed min). A push first drops the samples at the back that the new
 * one makes useless: those with sign * value <= sign * the new value. */
static int deque_push(tl_deque *d, double t_ms, double value, double sign)
{
    while (d->len && sign * d->buf[ring_slot(d->head, d->len - 1, d->cap)].value
                         <= sign * value)
        d->len--;
    if (ring_reserve((void **)&d->buf, &d->head, d->len, &d->cap,
                     sizeof(tl_sample), d->len + 1))
        return -1;
    tl_sample *x = &d->buf[ring_slot(d->head, d->len++, d->cap)];
    x->t_ms = t_ms;
    x->value = value;
    return 0;
}

/* drops the samples at the front older than `age_ms` */
static void deque_expire(tl_deque *d, double now_ms, double age_ms)
{
    while (d->len && now_ms - d->buf[d->head].t_ms > age_ms) {
        d->head = ring_slot(d->head, 1, d->cap);
        d->len--;
    }
}

int bbr_push_bw(tl_cc *c, double t_ms, double bps)
{
    return deque_push(&c->bw, t_ms, bps, 1.0);
}

int bbr_push_rtt(tl_cc *c, double t_ms, double rtt_ms)
{
    return deque_push(&c->rtt, t_ms, rtt_ms, -1.0);
}

double bbr_bw_estimate(const tl_cc *c)
{
    return c->bw.len ? c->bw.buf[c->bw.head].value : 0.0;
}

/* feature-level perturbation reaches this filter as a scale on its output */
double bbr_min_rtt_estimate(const tl_cc *c)
{
    double raw = c->rtt.len ? c->rtt.buf[c->rtt.head].value : INFINITY;
    return raw * c->min_rtt_scale;
}

/* cwnd = 2 x estimated BDP; pacing = gain x bandwidth estimate, with the
 * gain cycle advanced once per min-RTT */
static int bbr_ack(tl_cc *c, const tl_ackinfo *a)
{
    double now = a->now_ms;
    c->min_rtt_scale = a->min_rtt_scale;
    /* delivery rate: bytes acked over the last ~RTT of wall time */
    c->acc_bytes += a->acked_bytes;
    double elapsed = now - c->acc_start_ms;
    if (elapsed >= a->rtt_ms) {
        double bw = (double)c->acc_bytes * 8.0 / (elapsed / 1000.0);
        if (bbr_push_bw(c, now, bw))
            return -1;
        c->acc_bytes = 0;
        c->acc_start_ms = now;
    }
    if (bbr_push_rtt(c, now, a->rtt_ms))
        return -1;
    double min_rtt = bbr_min_rtt_estimate(c);
    deque_expire(&c->bw, now, c->bw_window_rtts * py_max(min_rtt, 1.0));
    deque_expire(&c->rtt, now, c->rtt_window_ms);
    double bw_est = bbr_bw_estimate(c);
    min_rtt = bbr_min_rtt_estimate(c);
    if (bw_est > 0 && isfinite(min_rtt)) {
        double bdp_pkts = bw_est / 8.0 * (min_rtt / 1000.0) / c->packet_size;
        c->w.cwnd = py_max(4.0, 2.0 * bdp_pkts);
        if (now >= c->next_gain_advance_ms) {
            c->gain_index = (c->gain_index + 1) % 8;
            c->next_gain_advance_ms = now + min_rtt;
        }
        c->pacing_bps = tl_gain_cycle[c->gain_index] * bw_est;
        c->paced = 1;
    }
    clamp(&c->w);
    return 0;
}

/* a rate-model controller: ignores individual loss events */
static void bbr_loss(tl_cc *c, int timeout)
{
    if (timeout)
        c->w.cwnd = py_max(4.0, c->w.cwnd / 2.0);
    clamp(&c->w);
}

/* One ACK batch; nonzero when a buffer could not grow. A learned or
 * TL_PINNED controller ignores ACKs and losses. */
int cc_on_ack(tl_cc *c, const tl_ackinfo *a)
{
    switch (c->kind) {
    case TL_RENO:
        reno_ack(&c->w, a);
        break;
    case TL_CUBIC:
        cubic_ack(c, a);
        break;
    case TL_VEGAS:
        vegas_ack(c, a);
        break;
    case TL_ILLINOIS:
        illinois_ack(c, a);
        break;
    case TL_LP:
        lp_ack(c, a);
        break;
    case TL_BBRLITE:
        return bbr_ack(c, a);
    }
    return 0;
}

void cc_on_loss(tl_cc *c, int timeout)
{
    switch (c->kind) {
    case TL_RENO:
    case TL_VEGAS:
        reno_loss(&c->w, timeout);
        break;
    case TL_CUBIC:
        cubic_loss(c, timeout);
        break;
    case TL_ILLINOIS:
        illinois_loss(c, timeout);
        break;
    case TL_LP:
        lp_loss(c, timeout);
        break;
    case TL_BBRLITE:
        bbr_loss(c, timeout);
        break;
    }
}

/* A policy's bounded action: a_max * tanh(out), clamped to [-a_max, a_max] */
double tl_action(double out, double a_max)
{
    return py_min(a_max, py_max(-a_max, a_max * tanh(out)));
}

/* `learned.observation_features`: the five features of `o` */
void tl_obs_features(const tl_obs *o, double b_max, double prev_action,
                     double *f)
{
    double min_rtt = py_max(o->visible_min_rtt_ms, 1e-6);
    f[0] = o->srtt_ms / min_rtt;
    f[1] = o->throughput_mbps / b_max;
    f[2] = o->loss_rate;
    f[3] = (o->srtt_ms - o->visible_min_rtt_ms) / min_rtt;
    f[4] = prev_action;
}

/* `LearnedController`'s step on its policy's output: the action, then
 * cwnd <- min(cwnd_max, max(1, cwnd * 2^a)) */
void cc_learned_step(tl_cc *c, double out)
{
    double a = tl_action(out, c->a_max);
    c->w.cwnd = py_min(c->cwnd_max, py_max(1.0, c->w.cwnd * pow(2.0, a)));
    c->prev_action = a;
}

/* The learned controller's interval step with a linear policy over
 * `learned.FEATURE_NAMES`. The dot product sums as numpy's `@` does for five
 * features (OpenBLAS's ddot tail): one fma per feature, in order, from 0.0,
 * then the bias. */
static void linear_interval(tl_cc *c, const tl_obs *o)
{
    double f[5];
    tl_obs_features(o, c->b_max, c->prev_action, f);
    double dot = 0.0;
    for (int i = 0; i < 5; i++)
        dot = fma(c->params[i], f[i], dot);
    cc_learned_step(c, (0.0 + dot) + c->params[5]);
}

/* One interval's end: TL_LINEAR steps, TL_HIDDEN writes its feature row. */
void cc_on_interval(tl_cc *c, const tl_obs *o)
{
    if (c->kind == TL_LINEAR)
        linear_interval(c, o);
    else if (c->kind == TL_HIDDEN)
        tl_obs_features(o, c->b_max, c->prev_action, c->x);
}

/* --- the controller reward and an episode's sums ---------------------------- */

/* The reward's delay factor: gamma * min_rtt / srtt once srtt exceeds
 * gamma * min_rtt, else 1. 0, or TL_DOMAIN_MIN_RTT when min_rtt <= 0. */
int tl_delay_factor(double srtt_ms, double min_rtt_ms, double gamma, double *d)
{
    if (min_rtt_ms <= 0)
        return TL_DOMAIN_MIN_RTT;
    *d = gamma * min_rtt_ms < srtt_ms ? gamma * min_rtt_ms / srtt_ms : 1.0;
    return 0;
}

/* The controller reward, `tests/oracles.py`'s `controller_reward`:
 * R_t = ((T_t - lam * L_t) / B_max) * D_t.
 * 0, or tl_delay_factor's TL_DOMAIN_* code. */
int tl_controller_reward(const tl_obs *o, const tl_reward *p, double *r)
{
    double d;
    int err = tl_delay_factor(o->srtt_ms, o->min_rtt_ms, p->gamma, &d);
    if (err)
        return err;
    *r = (o->throughput_mbps - p->lam * o->loss_mbps) / p->b_max * d;
    return 0;
}

/* The sums `netsim.EpisodeLog` takes its means from, over the n rows of `o`:
 * the queuing delay max(0, srtt - base_rtt_ms), the capacity, the throughput
 * and, given `reward`, the controller reward (else 0). 0, or the TL_DOMAIN_*
 * code of the first row outside the reward's domain. */
int tl_obs_sums(const tl_obs *o, int64_t n, double base_rtt_ms,
                const tl_reward *reward, tl_sums *s)
{
    *s = (tl_sums){0.0, 0.0, 0.0, 0.0};
    for (int64_t i = 0; i < n; i++) {
        s->queuing_delay_ms += py_max(0.0, o[i].srtt_ms - base_rtt_ms);
        s->capacity_mbps += o[i].capacity_mbps;
        s->throughput_mbps += o[i].throughput_mbps;
        if (reward) {
            double r;
            int err = tl_controller_reward(&o[i], reward, &r);
            if (err)
                return err;
            s->reward += r;
        }
    }
    return 0;
}

/* --- the Mahimahi export ---------------------------------------------------- */

/* `netsim.export_mahimahi`'s lines for one block of cumulative byte counts
 * (cum[i] bytes carried by the end of ms first_ms + i, each below 2^53):
 * from row *pos on, the line "first_ms + i + 1" once for every k with
 * *done < k <= floor(cum[i] / pkt), the exact count there (`tl_floordiv`).
 * Stops before a line would pass `cap` bytes (cap >= 24) and returns the
 * bytes written to `buf`, leaving *pos and *done where it stopped, so a
 * millisecond with more lines than one buffer holds goes on in the next
 * call; *pos == n once the block is done. */
int64_t tl_mahi_lines(const double *cum, int64_t n, int64_t first_ms,
                      double pkt, int64_t *done, int64_t *pos, char *buf,
                      int64_t cap)
{
    int64_t len = 0;
    for (int64_t i = *pos; i < n; i++) {
        int64_t k = (int64_t)floor(cum[i] / pkt);
        if (k <= *done)
            continue;
        char line[24], *p = line + sizeof line;
        *--p = '\n';
        for (int64_t ms = first_ms + i + 1; ms; ms /= 10)
            *--p = (char)('0' + ms % 10);
        int64_t w = line + sizeof line - p;
        for (; *done < k; (*done)++) {
            if (len + w > cap) {
                *pos = i;
                return len;
            }
            memcpy(buf + len, p, (size_t)w);
            len += w;
        }
    }
    *pos = n;
    return len;
}

/* --- random streams -------------------------------------------------------- */

/* PCG64 (O'Neill 2014) as numpy's `PCG64` runs it: an LCG step of the
 * 128-bit state, then the XSL-RR output of the new state, its halves
 * xored and rotated right by its top six bits */
static const __uint128_t tl_pcg_mult =
    ((__uint128_t)2549297995355413924ULL << 64) | 4865540595714422341ULL;

static __uint128_t tl_u128(uint64_t hi, uint64_t lo)
{
    return (__uint128_t)hi << 64 | lo;
}

static void tl_pcg_set(tl_rng *r, __uint128_t state)
{
    r->state_hi = (uint64_t)(state >> 64);
    r->state_lo = (uint64_t)state;
}

static void tl_pcg_step(tl_rng *r)
{
    tl_pcg_set(r, tl_u128(r->state_hi, r->state_lo) * tl_pcg_mult
                  + tl_u128(r->inc_hi, r->inc_lo));
}

static uint64_t tl_rng_next64(void *st)
{
    tl_rng *r = st;
    tl_pcg_step(r);
    uint64_t x = r->state_hi ^ r->state_lo;
    unsigned rot = (unsigned)(r->state_hi >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* the low half of a 64-bit output, keeping the high half for the next call */
static uint32_t tl_rng_next32(void *st)
{
    tl_rng *r = st;
    if (r->has_uint32) {
        r->has_uint32 = 0;
        return r->uinteger;
    }
    uint64_t next = tl_rng_next64(r);
    r->has_uint32 = 1;
    r->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* the top 53 bits of an output, as a double in [0, 1) */
static double tl_rng_next_double(void *st)
{
    return (double)(tl_rng_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* the bit generator libnpyrandom's distributions draw through */
#define TL_BITGEN(r) \
    {(r), tl_rng_next64, tl_rng_next32, tl_rng_next_double, tl_rng_next64}

/* SeedSequence's hash of a word, which advances its multiplier *h */
static uint32_t tl_hashmix(uint32_t value, uint32_t *h)
{
    value ^= *h;
    *h *= 0x931e8875u;
    value *= *h;
    return value ^ (value >> 16);
}

static uint32_t tl_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* numpy's `PCG64(seed)`: `SeedSequence(seed)` mixes the seed's n >= 1
 * 32-bit words, least significant first, into its pool of four, whose
 * `generate_state(4, uint64)` gives the 64-bit words v, each two 32-bit
 * ones, low first; PCG's srandom takes (v[0], v[1]) as initial state and
 * (v[2], v[3]) as sequence, high words first */
void tl_rng_seed(tl_rng *r, const uint32_t *entropy, int64_t n)
{
    uint32_t pool[4], h = 0x43b0d7e5u;
    uint64_t v[4] = {0};
    for (int i = 0; i < 4; i++)
        pool[i] = tl_hashmix(i < n ? entropy[i] : 0, &h);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = tl_mix(pool[dst], tl_hashmix(pool[src], &h));
    for (int64_t src = 4; src < n; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = tl_mix(pool[dst], tl_hashmix(entropy[src], &h));
    h = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t x = pool[i % 4] ^ h;
        h *= 0x58f38dedu;
        x *= h;
        v[i / 2] |= (uint64_t)(x ^ (x >> 16)) << (32 * (i % 2));
    }
    __uint128_t inc = tl_u128(v[2], v[3]) << 1 | 1u;
    r->inc_hi = (uint64_t)(inc >> 64);
    r->inc_lo = (uint64_t)inc;
    tl_pcg_set(r, 0);
    tl_pcg_step(r);
    tl_pcg_set(r, tl_u128(r->state_hi, r->state_lo) + tl_u128(v[0], v[1]));
    tl_pcg_step(r);
    r->has_uint32 = 0;
    r->uinteger = 0;
}

/* `Generator.uniform(low, low + range)` */
double tl_rng_uniform(tl_rng *r, double low, double range)
{
    bitgen_t g = TL_BITGEN(r);
    return random_uniform(&g, low, range);
}

void tl_rng_uniform_fill(tl_rng *r, double low, double range, double *out,
                         int64_t n)
{
    bitgen_t g = TL_BITGEN(r);
    for (int64_t i = 0; i < n; i++)
        out[i] = random_uniform(&g, low, range);
}

/* `Generator.standard_normal`: numpy's ziggurat */
void tl_rng_normal_fill(tl_rng *r, double *out, int64_t n)
{
    bitgen_t g = TL_BITGEN(r);
    random_standard_normal_fill(&g, n, out);
}

/* `Generator.integers` in [off, off + range], modulo 2^64: Lemire's
 * rejection, on 32-bit draws while range < 2^32 */
void tl_rng_integers_fill(tl_rng *r, uint64_t off, uint64_t range,
                          uint64_t *out, int64_t n)
{
    bitgen_t g = TL_BITGEN(r);
    random_bounded_uint64_fill(&g, off, range, n, false, out);
}

/* --- the adversary --------------------------------------------------------- */

/* `tracegen.project_next` over the last min(n, k) of the history, `recent`
 * (n >= 1): the nearest value to `proposed` that keeps the average absolute
 * slope of the last k steps within delta, and the range [bw_min, bw_max] */
double tl_project_next(const double *recent, int64_t n, double proposed,
                       double delta, int64_t k, double bw_min, double bw_max)
{
    double prev = recent[n - 1];
    double tail = 0.0;
    for (int64_t i = n - (k - 1) > 1 ? n - (k - 1) : 1; i < n; i++)
        tail += fabs(recent[i] - recent[i - 1]);
    double slack = py_max(0.0, (double)k * delta - tail);
    double lo = py_max(bw_min, prev - slack);
    double hi = py_min(bw_max, prev + slack);
    return py_min(hi, py_max(lo, proposed));
}

/* `tracegen.gen_random_trace`'s projection, in place: each of values[1..n)
 * becomes `tl_project_next` of itself over the up to k values before it */
void tl_project_trace(double *values, int64_t n, double delta, int64_t k,
                      double bw_min, double bw_max)
{
    for (int64_t t = 1; t < n; t++) {
        int64_t m = t < k ? t : k;
        values[t] = tl_project_next(values + t - m, m, values[t], delta, k,
                                    bw_min, bw_max);
    }
}

/* A feature intercept's adversarial min-RTT scale: 1 + clamp(a, -1, 1) * x */
double tl_feature_scale(double a, double x_fraction)
{
    return 1.0 + py_min(1.0, py_max(-1.0, a)) * x_fraction;
}

/* A new episode whose first capacity (env) or scale (feature) is `value`. */
void tl_adv_begin(tl_adv *a, double value)
{
    a->value = value;
    a->prev_action = 0.0;
    if (a->surface == TL_ADV_ENV) {
        a->recent[0] = value;
        a->n_recent = 1;
    }
    a->n_delays = 0;
    a->total = 0.0;
    a->ok = 0;
}

/* The policy's feature row at the end of the interval observed in `o`. */
void tl_adv_observe(tl_adv *a, const tl_obs *o)
{
    tl_obs_features(o, a->b_max, a->prev_action, a->x);
    if (a->surface == TL_ADV_ENV)
        a->x[5] = o->capacity_mbps / a->bw_max;
}

/* Acts on `out`, or without a policy draws; returns the next interval's
 * capacity or scale. */
double tl_adv_act(tl_adv *a)
{
    double v = 1.0;
    if (a->has_policy) {
        double act = tl_action(*a->out, a->a_max);
        a->prev_action = act;
        if (a->surface == TL_ADV_FEATURE) {
            v = tl_feature_scale(act, a->x_fraction);
        }
        else {
            double mid = 0.5 * (a->bw_min + a->bw_max);
            double half = 0.5 * (a->bw_max - a->bw_min);
            v = mid + act * half;
        }
    }
    else if (a->draws) {
        v = tl_rng_uniform(a->rng, a->low, a->span);
    }
    if (a->surface == TL_ADV_ENV) {
        v = tl_project_next(a->recent, a->n_recent, v, a->delta, a->window_k,
                            a->bw_min, a->bw_max);
        if (a->n_recent == a->window_k)
            memmove(a->recent, a->recent + 1,
                    (size_t)--a->n_recent * sizeof *a->recent);
        a->recent[a->n_recent++] = v;
    }
    return a->value = v;
}

/* The sum of the `n` delays of the ring ending at its newest, oldest first. */
static double delay_sum(const tl_adv *a, int64_t n)
{
    double sum = 0.0;
    for (int64_t i = a->n_delays - n; i < a->n_delays; i++)
        sum += a->delays[i % a->window_h];
    return sum;
}

/* `adversary.adversarial_episode`'s score of one interval: the queuing delay
 * srtt - min_rtt joins the window; the reward is -`tl_controller_reward`
 * (naive) or, delay-constrained, -utilization until the window holds
 * window_h delays, then -utilization plus -alpha iff the means of the last
 * window_h and window_k delays both sit below tau. 0, or the TL_DOMAIN_* code
 * of the check that failed. */
int tl_adv_reward(tl_adv *a, const tl_obs *o)
{
    if (o->srtt_ms < o->min_rtt_ms)
        return TL_DOMAIN_RTT;
    double d = o->srtt_ms - o->min_rtt_ms;
    a->delays[a->n_delays % a->window_h] = d;
    a->n_delays++;
    double r;
    if (a->naive) {
        int err = tl_controller_reward(o, &a->reward, &r);
        if (err)
            return err;
        r = -r;
    }
    else if (a->n_delays < a->window_h) {
        r = -o->utilization;
    }
    else {
        if (!(0.0 <= o->utilization && o->utilization <= 1.0))
            return TL_DOMAIN_UTILIZATION;
        double d_bar = delay_sum(a, a->window_h) / (double)a->window_h;
        double d_tilde = delay_sum(a, a->delay_k) / (double)a->delay_k;
        double penalty = d_bar < a->tau_ms && d_tilde < a->tau_ms ? -a->alpha : 0.0;
        r = -o->utilization + penalty;
    }
    a->total += r;
    if (d >= a->tau_ms)
        a->ok++;
    return 0;
}

/* The observation of the interval whose last tick is `tick`. */
static void observe(const tl_state *s, int64_t tick, tl_obs *o)
{
    double secs = (double)s->interval_ticks * s->tick_ms / 1000.0;
    double thr = py_mul_float(s->iv_delivered, s->pkt) * 8.0 / 1e6 / secs;
    o->now_ms = (double)tick * s->tick_ms + s->tick_ms;
    o->capacity_mbps = s->capacity;
    o->throughput_mbps = thr;
    o->loss_mbps = py_mul_float(s->iv_dropped, s->pkt) * 8.0 / 1e6 / secs;
    o->loss_rate = s->iv_sent ? tl_int_truediv(s->iv_dropped, s->iv_sent) : 0.0;
    o->srtt_ms = s->has_srtt ? s->srtt : s->base_rtt_ms;
    o->min_rtt_ms = s->min_rtt < INFINITY ? s->min_rtt : s->base_rtt_ms;
    o->visible_min_rtt_ms = o->min_rtt_ms * s->scale;
    o->utilization = s->capacity > 0 ? py_min(1.0, thr / s->capacity) : 0.0;
    o->cwnd = s->cc->w.cwnd;
}

/* Python's `max(int(cwnd), 1)` for a finite cwnd: the packets the window
 * admits. Python's int() truncates; past +-2^62 only the sign matters. */
static int64_t window_pkts(double cwnd)
{
    int64_t c = cwnd >= 0x1p62 ? INT64_C(1) << 62
        : cwnd <= -0x1p62 ? -(INT64_C(1) << 62) : (int64_t)cwnd;
    return c > 1 ? c : 1;
}

/* The retransmission timeout in ms: twice srtt (or the base RTT), at least
 * 200 ms. */
static double rto_of(const tl_state *s)
{
    double rto_ms = 2.0 * srtt_or_base(s);
    if (rto_ms < 200.0)
        rto_ms = 200.0;
    return rto_ms;
}

/* One interval's link: c bytes of credit per tick, fixed for the interval.
 * When `exact`, n0 = floor(c / pkt), and t0, t1 and t2 are n0, n0 + 1 and
 * n0 + 2 packets in bytes; see link_tick. */
typedef struct {
    double c, pkt, n0, t0, t1, t2;
    int exact;
} tl_link;

/* The link of an interval of `mbps`, entered with `credit` bytes. */
static void link_plan(tl_link *l, double mbps, double tick_ms, double pkt,
                      double credit)
{
    l->c = mbps * 1e6 / 8.0 * tick_ms / 1000.0;
    l->pkt = pkt;
    l->exact = l->c >= 0.0 && l->c < 0x1p52 && pkt <= 0x1p50
        && credit >= 0.0 && credit < pkt;
    if (l->exact) {
        l->n0 = floor(l->c / pkt);
        l->t0 = l->n0 * pkt;
        l->t1 = (l->n0 + 1.0) * pkt;
        l->t2 = (l->n0 + 2.0) * pkt;
    }
}

/* Step 4's credit for one tick: `credit += c`, then n = credit // pkt
 * delivery opportunities, whose bytes leave the credit; returns n. An n that
 * is not finite and >= 0 is the caller's TL_BAD_CAPACITY.
 *
 * When `exact`, n comes from two comparisons. The credit stays in [0, pkt)
 * through the interval: with x = credit + c below 2^53, `//` is the exact
 * floor (tl_floordiv), so x - n * pkt lies in [0, pkt), and it is computed
 * exactly (n * pkt is a whole number below 2^53; for n >= 1, x / 2 <
 * n * pkt <= x, so the difference is exact by Sterbenz's lemma). Then
 * c <= x, as rounding is monotone and c is a double, and x <= t2, as the
 * exact sum is below c + pkt < (n0 + 2) * pkt = t2, a double. So n is n0,
 * n0 + 1 or n0 + 2, the largest whose threshold x reaches; t2 < 2^53 holds
 * for c < 2^52 and pkt <= 2^50. */
static inline double link_tick(const tl_link *l, double *credit)
{
    double x = *credit + l->c;
    double n = l->exact ? l->n0 + (double)(x >= l->t1) + (double)(x >= l->t2)
        : tl_floordiv(x, l->pkt);
    *credit = x - n * l->pkt;
    return n;
}

int tl_step(tl_state *s)
{
    tl_cc *cc = s->cc;
    /* the hidden-layer policy's output for the boundary this call resumes at */
    if (cc->kind == TL_HIDDEN && s->tick > 0)
        cc_learned_step(cc, *cc->out);
    /* the tick's place in its interval; every call starts at an interval's
     * first tick, which plans the interval's link */
    const int64_t interval_ticks = s->interval_ticks;
    const double pkt = (double)s->pkt;
    int64_t pos = s->tick % interval_ticks;
    tl_link link = {0};
    while (s->tick < s->n_ticks) {
        int64_t tick = s->tick;

        /* a new interval: after a boundary the adversary acts, on the
         * output the driver left there or on a draw, then the interval's
         * counts and link rate */
        if (pos == 0) {
            if (tick > 0 && s->adv) {
                double v = tl_adv_act(s->adv);
                if (s->adv->surface == TL_ADV_ENV)
                    s->capacity = v;
                else
                    s->scale = v;
            }
            s->iv_sent = s->iv_delivered = s->iv_dropped = 0;
            link_plan(&link, s->capacity, s->tick_ms, pkt, s->byte_credit);
        }

        /* 1. ACK arrivals */
        if (s->a_len && s->acks[s->a_head].ack_tick == tick) {
            /* runs leave in send order: the first has the largest RTT, the
             * last the smallest */
            if (hist_reserve(s, tick - s->acks[s->a_head].send_tick + 1))
                return TL_NOMEM;
            int64_t n = 0, rtt_ticks = 0, r = 0;
            while (s->a_len && s->acks[s->a_head].ack_tick == tick) {
                const tl_ack *a = &s->acks[s->a_head];
                r = tick - a->send_tick;
                n += a->count;
                rtt_ticks += a->count * r;
                s->hist[r] += a->count;
                s->a_head = ring_slot(s->a_head, 1, s->a_cap);
                s->a_len--;
            }
            double rtt = r * s->tick_ms;
            if (rtt < s->min_rtt)
                s->min_rtt = rtt;
            double mean_rtt = rtt_ticks * s->tick_ms / n;
            double owd = mean_rtt - s->owd_ms;   /* queue wait + forward prop */
            if (owd < s->min_owd)
                s->min_owd = owd;
            if (s->has_srtt)
                s->srtt = s->srtt + (mean_rtt - s->srtt) / 8.0;
            else
                s->srtt = mean_rtt;
            s->has_srtt = 1;
            s->acked += n;
            s->last_ack_tick = tick;
            if (s->drop_pending)
                s->acks_after_drop += n;
            tl_ackinfo a = {tick * s->tick_ms, mean_rtt, owd, n, n * s->pkt,
                            s->min_rtt * s->scale, s->min_owd * s->scale,
                            s->srtt, s->scale};
            if (cc_on_ack(cc, &a))
                return TL_NOMEM;
        }

        /* 2. loss reactions: a triple duplicate ACK or a timeout */
        int loss = 0, timeout = 0;
        if (s->drop_pending && s->acks_after_drop >= 3
                && tick >= s->reaction_blocked_until) {
            loss = 1;
            /* at least 2 ticks, with no floor needed: every RTT sample, and
             * so srtt, is at least ack_delay >= 2 ticks, and the base RTT,
             * 2 * owd with owd a whole number of ticks >= 1, too */
            s->reaction_blocked_until =
                tick + (int64_t)py_round(srtt_or_base(s) / s->tick_ms);
        }
        else {
            double rto_ms = rto_of(s);
            if (s->sent - s->acked - s->resolved_drops > 0
                    && (tick - s->last_ack_tick) * s->tick_ms > rto_ms) {
                loss = timeout = 1;
                s->last_ack_tick = tick;   /* restart the timer */
                int64_t rto_ticks = (int64_t)py_round(rto_ms / s->tick_ms);
                s->reaction_blocked_until = tick + (rto_ticks > 1 ? rto_ticks : 1);
            }
        }
        if (loss) {
            if (timeout)
                s->timeouts++;
            else
                s->triple_dups++;
            s->resolved_drops = s->dropped;
            s->drop_pending = 0;
            s->acks_after_drop = 0;
            cc_on_loss(cc, timeout);
        }

        /* 3. injection, gated by cwnd and by pacing when the controller sets
         * a rate; a single tick can never usefully inject more than a full
         * queue's worth, so the burst cap keeps runaway cwnd values cheap. */
        double cwnd = cc->w.cwnd;
        if (isnan(cwnd) || isinf(cwnd))
            return TL_BAD_CWND;
        int64_t k = window_pkts(cwnd) - (s->sent - s->acked - s->resolved_drops);
        if (k > s->burst_cap)
            k = s->burst_cap;
        if (cc->paced) {
            double credit = s->pacing_credit + cc->pacing_bps / 8.0 * s->tick_ms / 1000.0;
            double top = 10.0 * s->pkt;
            s->pacing_credit = top < credit ? top : credit;   /* min(credit, top) */
            double q = tl_floordiv(s->pacing_credit, (double)s->pkt);
            if (isnan(q) || isinf(q))
                return TL_BAD_PACING;
            if (q < (double)k)
                k = q <= -0x1p62 ? -(INT64_C(1) << 62) : (int64_t)q;
            if (k > 0)
                s->pacing_credit -= (double)k * s->pkt;
        }
        if (k > 0) {
            s->sent += k;
            s->iv_sent += k;
            int64_t room = s->queue_cap - s->qlen;
            int64_t enq = k < room ? k : room;
            if (enq) {
                if (ring_reserve((void **)&s->queue, &s->q_head, s->q_len,
                                 &s->q_cap, sizeof(tl_run), s->q_len + 1))
                    return TL_NOMEM;
                tl_run *run = &s->queue[ring_slot(s->q_head, s->q_len, s->q_cap)];
                run->send_tick = tick;
                run->count = enq;
                s->q_len++;
                s->qlen += enq;
            }
            if (enq < k) {
                s->dropped += k - enq;
                s->iv_dropped += k - enq;
                if (!s->drop_pending) {
                    s->drop_pending = 1;
                    s->acks_after_drop = 0;
                }
            }
        }

        /* 4. delivery */
        double n_opp = link_tick(&link, &s->byte_credit);
        if (!(n_opp >= 0.0) || isinf(n_opp))
            return TL_BAD_CAPACITY;
        if (n_opp != 0.0 && s->qlen) {
            int64_t n_del = (double)s->qlen < n_opp ? s->qlen : (int64_t)n_opp;
            int64_t left = n_del;
            while (left) {
                if (ring_reserve((void **)&s->acks, &s->a_head, s->a_len,
                                 &s->a_cap, sizeof(tl_ack), s->a_len + 1))
                    return TL_NOMEM;
                tl_run *run = &s->queue[s->q_head];
                tl_ack *a = &s->acks[ring_slot(s->a_head, s->a_len, s->a_cap)];
                a->send_tick = run->send_tick;
                a->ack_tick = tick + s->ack_delay;
                if (run->count <= left) {
                    a->count = run->count;
                    left -= run->count;
                    s->q_head = ring_slot(s->q_head, 1, s->q_cap);
                    s->q_len--;
                }
                else {
                    a->count = left;
                    run->count -= left;
                    left = 0;
                }
                s->a_len++;
            }
            s->qlen -= n_del;
            s->delivered += n_del;
            s->iv_delivered += n_del;
        }

        /* 5. interval boundary: the observation, the controller's interval
         * step, the next interval's capacity from a trace, and the
         * adversary's score and feature row */
        s->tick = tick + 1;
        if (++pos == interval_ticks) {
            pos = 0;
            int64_t i = s->tick / interval_ticks - 1;
            observe(s, tick, &s->obs[i]);
            cc_on_interval(cc, &s->obs[i]);
            if (s->caps)
                s->capacity = s->caps[(i + 1) % s->n_caps];
            if (s->adv) {
                if (s->adv->scored) {
                    int err = tl_adv_reward(s->adv, &s->obs[i]);
                    if (err)
                        return err;
                }
                /* after the last interval there is nothing left to act on */
                if (s->adv->has_policy && s->tick < s->n_ticks)
                    tl_adv_observe(s->adv, &s->obs[i]);
            }
            if (s->hooked)
                return TL_INTERVAL;
        }
    }
    return TL_DONE;
}

/* `tl_step` on each of a slice's k rows, in order. Returns `want` once every
 * row has reached it, or else the first other event, with its row in
 * *failed. */
int tl_step_rows(tl_state *const *rows, int64_t k, int want, int64_t *failed)
{
    for (int64_t j = 0; j < k; j++) {
        int ev = tl_step(rows[j]);
        if (ev != want) {
            *failed = j;
            return ev;
        }
    }
    return want;
}

void tl_free(tl_state *s)
{
    free(s->queue);
    free(s->acks);
    free(s->hist);
    s->queue = NULL;
    s->acks = NULL;
    s->hist = NULL;
    s->q_cap = s->a_cap = s->hist_len = 0;
    s->q_len = s->a_len = 0;
}
