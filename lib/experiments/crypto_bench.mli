(** Host wall-clock micro-benchmark of the RSA hot path (sign/verify ops/s
    at 512/1024/2048 bits, CRT and window ablations, memo hit/miss), the
    simulation heap, and the Trust Module's quote signature and PCR extend.
    This is the one experiment that reports real CPU time rather than
    simulated time; its output backs the calibrated {!Core.Costs}
    constants.  Set [CLOUDMONATT_CRYPTO_SCALE=smoke] for a fast
    reduced-budget sweep. *)

type sign_row = {
  bits : int;
  crt : bool;
  window : bool;
  ops_per_s : float;
  ms_per_op : float;
  iters : int;
}

type verify_row = { v_bits : int; v_ops_per_s : float; v_ms_per_op : float; v_iters : int }

type memo_rates = {
  m_bits : int;
  hit_ops_per_s : float;
  miss_ops_per_s : float;
  hit_speedup : float;
}

(** Pop+push churn on the simulation kernel's binary heap. *)
type heap_row = { h_size : int; h_ops_per_s : float; h_ns_per_op : float; h_iters : int }

(** One Trust Module operation: ["tpm-quote-sign"] (512-bit session key)
    or ["pcr-extend"]. *)
type tpm_row = { t_op : string; t_ops_per_s : float; t_ns_per_op : float; t_iters : int }

type result = {
  scale : string;
  key_bits : int list;
  sign : sign_row list;
  verify : verify_row list;
  memo : memo_rates;
  heap : heap_row list;
  tpm : tpm_row list;
  sign_speedup : (int * float) list;
      (** (crt, window) over the classic full-width path, per key size *)
  seed_speedup : (int * float) list;
      (** (crt, window) over the recorded seed implementation *)
  crt_speedup_1024 : float;  (** CRT vs non-CRT signing (both windowed) at 1024 bits *)
}

val run : seed:int -> unit -> result

val clean : result -> bool
(** The gate: CRT signing is at least 1.2x faster than non-CRT at 1024
    bits. *)

val print : result -> unit
val to_json : seed:int -> result -> Json.t
