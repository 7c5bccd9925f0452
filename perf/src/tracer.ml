(* Per-hop spans recorded from outside the program.

   The tracer is a pass-through {!Net.Network.adversary}: the network shows
   it every Request before the callee's handler runs and every Reply after
   it returns.  Calls are synchronous, so a Request opens a span for the
   callee and the matching Reply closes it, and spans nest exactly as the
   calls do: customer -> cloud-controller -> attestation-server-k ->
   att:server-N.  The benchmark opens the root span of each op itself
   ({!op}).

   Time and allocation spent inside the tracer's own hooks are charged to
   no layer: they are the op's unattributed share.  Every nanosecond of a
   root span is therefore either some span's self time or hook time, so
   per op  Σ self + unattributed = latency  holds exactly. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  mutable t0 : int;
  mutable t1 : int;
  mutable w0 : int;
  mutable w1 : int;
  mutable hook_ns : int;  (** tracer time directly inside this span *)
  mutable hook_w : int;
}

type hop_bytes = { mutable msgs : int; mutable bytes : int }

type t = {
  hop_of : string -> string;  (** network address -> layer name *)
  mutable stack : span list;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable ops : int;
  wire : (string, hop_bytes) Hashtbl.t;  (** per callee layer *)
  mutable handshakes : int;
}

let create ~hop_of () =
  { hop_of; stack = []; spans = []; next_id = 0; ops = 0; wire = Hashtbl.create 8; handshakes = 0 }

let fresh t ~parent ~name =
  let s =
    {
      id = t.next_id;
      parent;
      op = t.ops;
      name;
      t0 = 0;
      t1 = 0;
      w0 = 0;
      w1 = 0;
      hook_ns = 0;
      hook_w = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s

(* The first byte of every secure-channel frame is its tag; 1 is a
   ClientHello, i.e. a new handshake. *)
let is_hello payload = String.length payload > 0 && payload.[0] = '\001'

let count t ~layer payload =
  let h =
    match Hashtbl.find_opt t.wire layer with
    | Some h -> h
    | None ->
        let h = { msgs = 0; bytes = 0 } in
        Hashtbl.replace t.wire layer h;
        h
  in
  h.msgs <- h.msgs + 1;
  h.bytes <- h.bytes + String.length payload

let charge span ~c0 ~a0 =
  span.hook_ns <- span.hook_ns + (now_ns () - c0);
  span.hook_w <- span.hook_w + (minor_words () - a0)

(* Wrap [inner] (the adversary that would otherwise be installed; default
   pass everything): its decision is returned unchanged.  Messages outside
   an op pass untraced. *)
let adversary ?(inner = fun _ -> Net.Network.Pass) t : Net.Network.adversary =
 fun m ->
  let c0 = now_ns () and a0 = minor_words () in
  let action = inner m in
  (match t.stack with
  | [] -> ()
  | top :: rest -> (
      let delivered =
        match action with Net.Network.Replace p -> p | Pass | Drop -> m.Net.Network.payload
      in
      match (m.Net.Network.dir, action) with
      | Net.Network.Request, Net.Network.Drop ->
          count t ~layer:(t.hop_of m.Net.Network.dst) delivered;
          charge top ~c0 ~a0
      | Net.Network.Request, _ ->
          let layer = t.hop_of m.Net.Network.dst in
          count t ~layer delivered;
          if is_hello delivered then t.handshakes <- t.handshakes + 1;
          let child = fresh t ~parent:top.id ~name:layer in
          t.stack <- child :: t.stack;
          charge top ~c0 ~a0;
          child.t0 <- now_ns ();
          child.w0 <- minor_words ()
      | Net.Network.Reply, _ when top.parent < 0 ->
          (* a reply whose request was not seen inside this op *)
          charge top ~c0 ~a0
      | Net.Network.Reply, _ -> (
          count t ~layer:(t.hop_of m.Net.Network.src) delivered;
          top.t1 <- c0;
          top.w1 <- a0;
          t.stack <- rest;
          match rest with parent :: _ -> charge parent ~c0 ~a0 | [] -> ())));
  action

let install ?inner t net = Net.Network.set_adversary net (adversary ?inner t)

(* Run one op under a root span named [name].  Spans a raising handler left
   open are closed at the op's end. *)
let op t ~name f =
  let root = fresh t ~parent:(-1) ~name in
  t.stack <- [ root ];
  let finish () =
    let c = now_ns () and a = minor_words () in
    List.iter
      (fun s ->
        s.t1 <- c;
        s.w1 <- a)
      t.stack;
    t.stack <- [];
    t.ops <- t.ops + 1
  in
  root.w0 <- minor_words ();
  root.t0 <- now_ns ();
  Fun.protect ~finally:finish f

let ops t = t.ops
let spans t = List.rev t.spans

type self = { span : span; self_ns : int; self_w : int }

(* Self = duration - children's durations - own hook time. *)
let self_times t =
  let child_ns = Hashtbl.create 64 and child_w = Hashtbl.create 64 in
  let add tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_ns s.parent (s.t1 - s.t0);
        add child_w s.parent (s.w1 - s.w0)
      end)
    t.spans;
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  List.rev_map
    (fun s ->
      {
        span = s;
        self_ns = s.t1 - s.t0 - get child_ns s.id - s.hook_ns;
        self_w = s.w1 - s.w0 - get child_w s.id - s.hook_w;
      })
    t.spans

let wire t = Hashtbl.fold (fun layer h acc -> (layer, h.msgs, h.bytes) :: acc) t.wire []
let handshakes t = t.handshakes

(* One JSON object per span, oldest first. *)
let write_jsonl t ~workload oc =
  List.iter
    (fun { span = s; self_ns; self_w } ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str workload);
                ("op", Json.Num (float_of_int s.op));
                ("id", Json.Num (float_of_int s.id));
                ("parent", Json.Num (float_of_int s.parent));
                ("name", Json.Str s.name);
                ("start_ns", Json.Num (float_of_int s.t0));
                ("end_ns", Json.Num (float_of_int s.t1));
                ("self_ns", Json.Num (float_of_int self_ns));
                ("hook_ns", Json.Num (float_of_int s.hook_ns));
                ("alloc_w", Json.Num (float_of_int (s.w1 - s.w0)));
                ("self_alloc_w", Json.Num (float_of_int self_w));
              ]));
      output_char oc '\n')
    (self_times t)
