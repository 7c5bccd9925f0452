type status = Healthy | Compromised of string | Unknown of string

type t = {
  vid : string;
  property : Property.t;
  status : status;
  evidence : string;
  produced_at : Sim.Time.t;
}

let is_healthy t = t.status = Healthy

let pp_status ppf = function
  | Healthy -> Format.pp_print_string ppf "HEALTHY"
  | Compromised why -> Format.fprintf ppf "COMPROMISED (%s)" why
  | Unknown why -> Format.fprintf ppf "UNKNOWN (%s)" why

module Codec = Wire.Codec

let encode e t =
  Codec.Enc.str e t.vid;
  Property.encode e t.property;
  (match t.status with
  | Healthy -> Codec.Enc.u8 e 0
  | Compromised why ->
      Codec.Enc.u8 e 1;
      Codec.Enc.str e why
  | Unknown why ->
      Codec.Enc.u8 e 2;
      Codec.Enc.str e why);
  Codec.Enc.str e t.evidence;
  Codec.Enc.int e t.produced_at

let decode d =
  let vid = Codec.Dec.str d in
  let property = Property.decode d in
  let status =
    match Codec.Dec.u8 d with
    | 0 -> Healthy
    | 1 -> Compromised (Codec.Dec.str d)
    | 2 -> Unknown (Codec.Dec.str d)
    | _ -> raise (Codec.Error "bad report status")
  in
  let evidence = Codec.Dec.str d in
  let produced_at = Codec.Dec.int d in
  { vid; property; status; evidence; produced_at }
