type process = { pid : int; name : string; hidden : bool; binary_hash : string }

let pristine_hash name = Crypto.Sha256.digest ("binary|" ^ name)

type t = { mutable procs : process list; mutable next_pid : int }

let default_init = [ "init"; "systemd-journald"; "sshd"; "cron"; "rsyslogd" ]

let create ?(init = default_init) () =
  let t = { procs = []; next_pid = 1 } in
  List.iter
    (fun name ->
      t.procs <-
        { pid = t.next_pid; name; hidden = false; binary_hash = pristine_hash name } :: t.procs;
      t.next_pid <- t.next_pid + 1)
    init;
  t

let spawn t ?(hidden = false) ?binary name =
  let binary_hash =
    match binary with
    | None -> pristine_hash name
    | Some content -> Crypto.Sha256.digest ("binary|" ^ name ^ "|" ^ content)
  in
  let p = { pid = t.next_pid; name; hidden; binary_hash } in
  t.next_pid <- t.next_pid + 1;
  t.procs <- p :: t.procs;
  p

let kill t pid =
  let before = List.length t.procs in
  t.procs <- List.filter (fun p -> p.pid <> pid) t.procs;
  List.length t.procs < before

let hide t pid =
  let found = ref false in
  t.procs <-
    List.map
      (fun p ->
        if p.pid = pid then begin
          found := true;
          { p with hidden = true }
        end
        else p)
      t.procs;
  !found

let by_pid ps = List.sort (fun a b -> compare a.pid b.pid) ps

let visible_tasks t =
  List.filter_map (fun p -> if p.hidden then None else Some p.name) (by_pid t.procs)

let kernel_tasks t = List.map (fun p -> p.name) (by_pid t.procs)

let ima_log t = List.map (fun p -> (p.name, p.binary_hash)) (by_pid t.procs)

let snapshot t = { procs = t.procs; next_pid = t.next_pid }
