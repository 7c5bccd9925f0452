type address = string

type direction = Request | Reply

type message = { seq : int; src : address; dst : address; dir : direction; payload : string }

type action = Pass | Replace of string | Drop

type adversary = message -> action

type error = [ `Dropped | `No_such_host of address ]

type retry_policy = {
  max_attempts : int;
  base_delay : Sim.Time.t;
  backoff : float;
  max_delay : Sim.Time.t;
  deadline : Sim.Time.t option;
}

let default_retry_policy =
  {
    max_attempts = 4;
    base_delay = Sim.Time.ms 2;
    backoff = 2.0;
    max_delay = Sim.Time.ms 50;
    deadline = Some (Sim.Time.sec 2);
  }

(* The paper's testbed LAN: 200 us base latency, 50 us jitter, 1 Gbps. *)
let base_latency_us = 200
let jitter_us = 50
let bandwidth_bytes_per_us = 1000.0 *. 1.0e6 /. 8.0 /. 1.0e6

type t = {
  prng : Sim.Prng.t;
  handlers : (address, string -> string) Hashtbl.t;
  mutable adversary : adversary option;
  mutable log : message list; (* newest first *)
  mutable seq : int;
  mutable messages : int;
  mutable bytes : int;
  mutable drops : int;
  mutable retries : int;
}

let create ~seed () =
  {
    prng = Sim.Prng.create seed;
    handlers = Hashtbl.create 16;
    adversary = None;
    log = [];
    seq = 0;
    messages = 0;
    bytes = 0;
    drops = 0;
    retries = 0;
  }

let register t addr handler = Hashtbl.replace t.handlers addr handler
let unregister t addr = Hashtbl.remove t.handlers addr

let leg_latency t nbytes =
  let jitter =
    int_of_float (abs_float (Sim.Prng.gaussian t.prng ~mu:0.0 ~sigma:(float_of_int jitter_us)))
  in
  let wire = int_of_float (float_of_int nbytes /. bandwidth_bytes_per_us) in
  base_latency_us + jitter + wire

let observe t ~src ~dst ~dir payload =
  t.seq <- t.seq + 1;
  t.messages <- t.messages + 1;
  let msg = { seq = t.seq; src; dst; dir; payload } in
  t.log <- msg :: t.log;
  (* Byte accounting follows what actually crosses the far end of the wire:
     a rewritten payload is counted at its delivered length, a dropped one
     still occupied the sender's leg. *)
  match t.adversary with
  | None ->
      t.bytes <- t.bytes + String.length payload;
      Some payload
  | Some adv -> (
      match adv msg with
      | Pass ->
          t.bytes <- t.bytes + String.length payload;
          Some payload
      | Replace p ->
          t.bytes <- t.bytes + String.length p;
          Some p
      | Drop ->
          t.bytes <- t.bytes + String.length payload;
          t.drops <- t.drops + 1;
          None)

let call t ~src ~dst payload =
  match Hashtbl.find_opt t.handlers dst with
  | None -> (Error (`No_such_host dst), Sim.Time.zero)
  | Some handler -> (
      let t1 = leg_latency t (String.length payload) in
      match observe t ~src ~dst ~dir:Request payload with
      | None -> (Error `Dropped, Sim.Time.us t1)
      | Some delivered -> (
          let reply = handler delivered in
          let t2 = leg_latency t (String.length reply) in
          match observe t ~src:dst ~dst:src ~dir:Reply reply with
          | None -> (Error `Dropped, Sim.Time.us (t1 + t2))
          | Some reply -> (Ok reply, Sim.Time.us (t1 + t2))))

let call_with_retry ?policy t ~src ~dst payload =
  let p = Option.value policy ~default:default_retry_policy in
  let max_attempts = max 1 p.max_attempts in
  let delay_for attempt =
    (* attempt is 1-based; the wait before attempt k+1 is
       base * backoff^(k-1), capped at max_delay. *)
    let d =
      int_of_float (float_of_int p.base_delay *. (p.backoff ** float_of_int (attempt - 1)))
    in
    min d p.max_delay
  in
  let rec go attempt elapsed =
    let result, leg = call t ~src ~dst payload in
    let elapsed = elapsed + leg in
    match result with
    | Ok reply -> (Ok reply, elapsed)
    | Error (`No_such_host _ as e) -> (Error e, elapsed)
    | Error `Dropped ->
        let wait = delay_for attempt in
        let over_deadline =
          match p.deadline with Some d -> elapsed + wait > d | None -> false
        in
        if attempt >= max_attempts || over_deadline then (Error `Dropped, elapsed)
        else begin
          t.retries <- t.retries + 1;
          go (attempt + 1) (elapsed + wait)
        end
  in
  go 1 Sim.Time.zero

let transfer_time ~bytes =
  Sim.Time.us (base_latency_us + int_of_float (float_of_int bytes /. bandwidth_bytes_per_us))

let set_adversary t adv = t.adversary <- Some adv
let clear_adversary t = t.adversary <- None

let recorded t = List.rev t.log
let message_count t = t.messages
let bytes_sent t = t.bytes
let drop_count t = t.drops
let retry_count t = t.retries
