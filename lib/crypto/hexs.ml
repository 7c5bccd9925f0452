let hex_digit n = "0123456789abcdef".[n]

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set b (2 * i) (hex_digit (c lsr 4));
    Bytes.set b ((2 * i) + 1) (hex_digit (c land 0xf))
  done;
  Bytes.unsafe_to_string b

let value_of_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Hexs.decode: not a hex digit"

let decode s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Hexs.decode: odd length";
  let b = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    let hi = value_of_digit s.[2 * i] and lo = value_of_digit s.[(2 * i) + 1] in
    Bytes.set b i (Char.chr ((hi lsl 4) lor lo))
  done;
  Bytes.unsafe_to_string b

let short s =
  let h = encode s in
  if String.length h <= 8 then h else String.sub h 0 8
