type fault = Drop_nth of int | Garble_nth of int | Lossy of int * int | Blackout

type op =
  | Launch of { image : int; monitored : bool; workload : int }
  | Terminate of int
  | Suspend of int
  | Resume of int
  | Migrate of int
  | Attest of int * int
  | Attest_many of (int * int) list
  | Set_cache_ttl of int
  | Set_batching of bool
  | Enable_audit
  | Set_fault of fault
  | Clear_fault
  | Advance of int
  | Infect of int
  | Corrupt_image of int
  | Vtpm_cycle of int  (** save + restore the vTPM of vm#slot's host (state now stale) *)
  | Vtpm_clone of int * int  (** restore vm#src's host vTPM state into vm#dst's host *)
  | Vtpm_rebind of int  (** re-register vm#slot's host vTPM with the Privacy CA *)
  | Protocol_term of Copland.Phrase.t
      (** run a protocol phrase through the Controller interpreter *)
  | Monitor_enable of int
      (** arm continuous monitoring with this re-attestation period (ms);
          0 disarms *)
  | Monitor_period of int  (** change the period of an armed monitor (ms) *)
  | Monitor_storm of int
      (** rack-style incident: hide malware in every VM co-hosted with
          vm#slot *)

type scenario = { seed : int; ops : op list }

let images = [| "cirros"; "fedora"; "ubuntu" |]
let workloads = [| ""; "busy" |]
let properties = Array.of_list Core.Property.all

(* --- Compact textual form -------------------------------------------------

   One token per op, ';'-separated.  The grammar is deliberately dense so a
   whole repro fits on one line:

     L<image>.<mon>.<workload>   launch        K<slot>  terminate (kill)
     S<slot> suspend   R<slot> resume   M<slot> migrate
     a<slot>.<prop>    attest
     A<slot>.<prop>+<slot>.<prop>+...   attest_many
     c<ms>   cache TTL          b0|b1    batching off/on
     u       enable audit       t<ms>    advance
     x<slot> infect             i<image> corrupt image
     vs<slot> vTPM save+restore   vm<src>.<dst> vTPM clone   vr<slot> vTPM rebind
     fd<n> fg<n> fl<drop>.<garble> fb    faults;   f0  clear fault
     P<phrase>   protocol term (Copland codec; no ';' or space inside)
     me<ms> monitor enable (0 disarms)   mp<ms> monitor period
     mt<slot> monitor storm (infect vm#slot's whole host) *)

let op_to_string = function
  | Launch { image; monitored; workload } ->
      Printf.sprintf "L%d.%d.%d" image (if monitored then 1 else 0) workload
  | Terminate s -> Printf.sprintf "K%d" s
  | Suspend s -> Printf.sprintf "S%d" s
  | Resume s -> Printf.sprintf "R%d" s
  | Migrate s -> Printf.sprintf "M%d" s
  | Attest (s, p) -> Printf.sprintf "a%d.%d" s p
  | Attest_many items ->
      "A" ^ String.concat "+" (List.map (fun (s, p) -> Printf.sprintf "%d.%d" s p) items)
  | Set_cache_ttl ms -> Printf.sprintf "c%d" ms
  | Set_batching b -> if b then "b1" else "b0"
  | Enable_audit -> "u"
  | Set_fault (Drop_nth n) -> Printf.sprintf "fd%d" n
  | Set_fault (Garble_nth n) -> Printf.sprintf "fg%d" n
  | Set_fault (Lossy (d, g)) -> Printf.sprintf "fl%d.%d" d g
  | Set_fault Blackout -> "fb"
  | Clear_fault -> "f0"
  | Advance ms -> Printf.sprintf "t%d" ms
  | Infect s -> Printf.sprintf "x%d" s
  | Corrupt_image i -> Printf.sprintf "i%d" i
  | Vtpm_cycle s -> Printf.sprintf "vs%d" s
  | Vtpm_clone (src, dst) -> Printf.sprintf "vm%d.%d" src dst
  | Vtpm_rebind s -> Printf.sprintf "vr%d" s
  | Protocol_term p -> "P" ^ Copland.Phrase.to_string p
  | Monitor_enable ms -> Printf.sprintf "me%d" ms
  | Monitor_period ms -> Printf.sprintf "mp%d" ms
  | Monitor_storm s -> Printf.sprintf "mt%d" s

let int_of s = int_of_string_opt s

let pair_of s =
  match String.index_opt s '.' with
  | None -> None
  | Some i -> (
      match
        ( int_of (String.sub s 0 i),
          int_of (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some a, Some b -> Some (a, b)
      | _ -> None)

let op_of_string s =
  let n = String.length s in
  if n = 0 then None
  else
    let rest = String.sub s 1 (n - 1) in
    match s.[0] with
    | 'L' -> (
        match String.split_on_char '.' rest with
        | [ i; m; w ] -> (
            match (int_of i, int_of m, int_of w) with
            | Some image, Some mon, Some workload when mon = 0 || mon = 1 ->
                Some (Launch { image; monitored = mon = 1; workload })
            | _ -> None)
        | _ -> None)
    | 'K' -> Option.map (fun s -> Terminate s) (int_of rest)
    | 'S' -> Option.map (fun s -> Suspend s) (int_of rest)
    | 'R' -> Option.map (fun s -> Resume s) (int_of rest)
    | 'M' -> Option.map (fun s -> Migrate s) (int_of rest)
    | 'a' -> Option.map (fun (s, p) -> Attest (s, p)) (pair_of rest)
    | 'A' ->
        let items = List.map pair_of (String.split_on_char '+' rest) in
        if items = [] || List.exists Option.is_none items then None
        else Some (Attest_many (List.map Option.get items))
    | 'c' -> Option.map (fun ms -> Set_cache_ttl ms) (int_of rest)
    | 'b' -> (
        match rest with "0" -> Some (Set_batching false) | "1" -> Some (Set_batching true) | _ -> None)
    | 'u' -> if rest = "" then Some Enable_audit else None
    | 't' -> Option.map (fun ms -> Advance ms) (int_of rest)
    | 'x' -> Option.map (fun s -> Infect s) (int_of rest)
    | 'i' -> Option.map (fun i -> Corrupt_image i) (int_of rest)
    | 'v' ->
        if n < 3 then None
        else begin
          let arg = String.sub s 2 (n - 2) in
          match s.[1] with
          | 's' -> Option.map (fun s -> Vtpm_cycle s) (int_of arg)
          | 'm' -> Option.map (fun (src, dst) -> Vtpm_clone (src, dst)) (pair_of arg)
          | 'r' -> Option.map (fun s -> Vtpm_rebind s) (int_of arg)
          | _ -> None
        end
    | 'P' -> (
        match Copland.Phrase.of_string rest with
        | Ok p -> Some (Protocol_term p)
        | Error _ -> None)
    | 'm' ->
        if n < 3 then None
        else begin
          let arg = String.sub s 2 (n - 2) in
          match s.[1] with
          | 'e' -> Option.map (fun ms -> Monitor_enable ms) (int_of arg)
          | 'p' -> Option.map (fun ms -> Monitor_period ms) (int_of arg)
          | 't' -> Option.map (fun s -> Monitor_storm s) (int_of arg)
          | _ -> None
        end
    | 'f' ->
        if rest = "0" then Some Clear_fault
        else if rest = "b" then Some (Set_fault Blackout)
        else if n < 3 then None
        else begin
          let arg = String.sub s 2 (n - 2) in
          match s.[1] with
          | 'd' -> Option.map (fun n -> Set_fault (Drop_nth n)) (int_of arg)
          | 'g' -> Option.map (fun n -> Set_fault (Garble_nth n)) (int_of arg)
          | 'l' -> Option.map (fun (d, g) -> Set_fault (Lossy (d, g))) (pair_of arg)
          | _ -> None
        end
    | _ -> None

let to_string { seed; ops } =
  Printf.sprintf "seed=%d ops=%s" seed (String.concat ";" (List.map op_to_string ops))

let of_string line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> None
  | Some sp ->
      let seed_part = String.sub line 0 sp in
      let ops_part = String.sub line (sp + 1) (String.length line - sp - 1) in
      let prefixed prefix s =
        let pn = String.length prefix in
        if String.length s >= pn && String.sub s 0 pn = prefix then
          Some (String.sub s pn (String.length s - pn))
        else None
      in
      (match (prefixed "seed=" seed_part, prefixed "ops=" ops_part) with
      | Some seed_s, Some ops_s -> (
          match int_of_string_opt seed_s with
          | None -> None
          | Some seed ->
              if ops_s = "" then Some { seed; ops = [] }
              else
                let ops = List.map op_of_string (String.split_on_char ';' ops_s) in
                if List.exists Option.is_none ops then None
                else Some { seed; ops = List.map Option.get ops })
      | _ -> None)

let equal_op (a : op) (b : op) = a = b
