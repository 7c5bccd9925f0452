type t = { mutable key : string; mutable counter : int }

let create ~seed = { key = Sha256.digest ("drbg-seed|" ^ seed); counter = 0 }

let zero_nonce = String.make 12 '\x00'

let random_bytes t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.counter <- t.counter + 1;
    Buffer.add_string buf (Chacha20.block ~key:t.key ~nonce:zero_nonce ~counter:t.counter);
    (* Ratchet the key forward every 2^20 blocks for backtracking resistance;
       cheap enough to just do when the counter would wrap 32 bits. *)
    if t.counter land 0xFFFFF = 0 then begin
      t.key <- Sha256.digest t.key;
      t.counter <- 0
    end
  done;
  Buffer.sub buf 0 n

let random_u64 t =
  let s = random_bytes t 8 in
  let acc = ref 0L in
  String.iter (fun c -> acc := Int64.logor (Int64.shift_left !acc 8) (Int64.of_int (Char.code c))) s;
  !acc

let random_int t bound =
  if bound <= 0 then invalid_arg "Drbg.random_int: bound must be positive";
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (random_u64 t) 2) in
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then go () else r
  in
  go ()

let nonce t = random_bytes t 16

let reseed t extra = t.key <- Sha256.digest_list [ t.key; extra ]
