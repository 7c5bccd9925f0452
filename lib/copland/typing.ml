type ctx = {
  vms : int;
  clusters : int;
  properties : int;
  cluster_of : int -> int;
  host_of : int -> int;
}

type error =
  | Bad_slot of int
  | Bad_property of int
  | Bad_cluster of int
  | Unplaced of int
  | Nested_delegation
  | Cluster_mismatch of { slot : int; expected : int; actual : int }
  | Host_mismatch of { slot : int; layer_slot : int }

let pp_error ppf = function
  | Bad_slot s -> Format.fprintf ppf "no VM in slot %d" s
  | Bad_property p -> Format.fprintf ppf "no property with index %d" p
  | Bad_cluster c -> Format.fprintf ppf "no AS cluster %d" c
  | Unplaced s -> Format.fprintf ppf "slot %d's VM is not placed on any host" s
  | Nested_delegation -> Format.fprintf ppf "delegation inside a delegation"
  | Cluster_mismatch { slot; expected; actual } ->
      Format.fprintf ppf "slot %d is appraised by AS cluster %d, not the delegated cluster %d"
        slot actual expected
  | Host_mismatch { slot; layer_slot } ->
      Format.fprintf ppf
        "slot %d does not share a host with layered slot %d: the layer's backend appraisal \
         says nothing about this VM's quotes"
        slot layer_slot

let error_to_string e = Format.asprintf "%a" pp_error e

let ( let* ) = Result.bind

(* A slot is well-formed when it indexes a placed VM; under a delegation it
   must be routed to the delegated cluster, and under a layer it must run on
   the very host whose backend the layer appraises — a freshness check on
   one host says nothing about quotes signed on another. *)
let check_slot ctx ~deleg ~layer slot =
  if slot < 0 || slot >= ctx.vms then Error (Bad_slot slot)
  else begin
    let host = ctx.host_of slot in
    if host < 0 then Error (Unplaced slot)
    else
      let* () =
        match deleg with
        | Some cluster when ctx.cluster_of slot <> cluster ->
            Error (Cluster_mismatch { slot; expected = cluster; actual = ctx.cluster_of slot })
        | _ -> Ok ()
      in
      match layer with
      | Some layer_slot when ctx.host_of layer_slot <> host ->
          Error (Host_mismatch { slot; layer_slot })
      | _ -> Ok ()
  end

let check ctx phrase =
  let rec go ~deleg ~layer = function
    | Phrase.Appraise { slot; prop; nonce = _ } ->
        let* () = check_slot ctx ~deleg ~layer slot in
        if prop < 0 || prop >= ctx.properties then Error (Bad_property prop) else Ok ()
    | Phrase.Seq (a, b) | Phrase.Par (_, a, b) ->
        let* () = go ~deleg ~layer a in
        go ~deleg ~layer b
    | Phrase.Deleg { cluster; auth = _; body } ->
        if deleg <> None then Error Nested_delegation
        else if cluster < 0 || cluster >= ctx.clusters then Error (Bad_cluster cluster)
        else go ~deleg:(Some cluster) ~layer body
    | Phrase.Layer { slot; checked = _; body } ->
        let* () = check_slot ctx ~deleg ~layer slot in
        go ~deleg ~layer:(Some slot) body
  in
  go ~deleg:None ~layer:None phrase

