open Net.Network

let passive ~on_message msg =
  on_message msg;
  Pass

(* Flip one bit of byte 48 (or of the last byte of a shorter payload). *)
let corrupt payload =
  let b = Bytes.of_string payload in
  let i = min 48 (Bytes.length b - 1) in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

let flip_byte ?(min_len = 64) () msg =
  if String.length msg.payload >= min_len then Replace (corrupt msg.payload) else Pass

let tamper_replies ?(min_len = 64) () msg =
  match msg.dir with
  | Reply when String.length msg.payload >= min_len -> Replace (corrupt msg.payload)
  | Reply | Request -> Pass

let replay_requests () =
  let seen : (string * string, string) Hashtbl.t = Hashtbl.create 8 in
  fun msg ->
    match msg.dir with
    | Reply -> Pass
    | Request -> (
        let key = (msg.src, msg.dst) in
        match Hashtbl.find_opt seen key with
        | None ->
            Hashtbl.replace seen key msg.payload;
            Pass
        | Some old -> Replace old)

let drop_everything () _msg = Drop
